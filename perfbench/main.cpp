// perfbench: the measured benchmark of B-Par (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>]
//
// Prints a metric table, the output checks, one provenance line, and as
// its last line the result JSON: {"correct", "attempted", "failed",
// "metrics"}. Exits non-zero, without a result line, on any error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {train_blstm|infer_bgru_int8|"
               "serve_blstm_low|serve_blstm_load} --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && opts.seconds > 0.0;
    } else if (arg == "--trace") {
      opts.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--git-sha") {
      opts.git_sha = value;
    } else {
      usage();
      return 2;
    }
  }
  // No defaults: a run names its workload, inputs and length.
  if (opts.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage();
    return 2;
  }

  const perfbench::CpuTimes start = perfbench::cpu_times();
  perfbench::Report report;
  try {
    if (opts.workload == "train_blstm") {
      perfbench::run_train_blstm(opts, report);
    } else if (opts.workload == "infer_bgru_int8") {
      perfbench::run_infer_bgru_int8(opts, report);
    } else if (opts.workload == "serve_blstm_low") {
      perfbench::run_serve_blstm(opts, report, /*loaded=*/false);
    } else if (opts.workload == "serve_blstm_load") {
      perfbench::run_serve_blstm(opts, report, /*loaded=*/true);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print_table();
  perfbench::print_provenance(opts, report, start);
  std::printf("%s\n", report.json().c_str());
  return 0;
}
