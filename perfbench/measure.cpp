#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "kernels/backend.hpp"
#include "obs/json.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::count(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(const std::string& what, bool ok) {
  std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct_ = false;
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i == 0 ? "" : ", ") << bpar::obs::json_quote(m.name)
       << ": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
       << ", \"unit\": " << bpar::obs::json_quote(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

void Report::print_table() const {
  for (const Metric& m : metrics_) {
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations attempted %zu, failed %zu\n", attempted_, failed_);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sliced_quantile(const std::vector<double>& v, double q) {
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const std::size_t first = v.size() * s / kSlices;
    const std::size_t last = v.size() * (s + 1) / kSlices;
    if (first == last) continue;
    per_slice.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(first),
                            v.begin() + static_cast<std::ptrdiff_t>(last)),
        q));
  }
  return median(per_slice);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

bpar::rnn::BatchData random_batch(const bpar::rnn::NetworkConfig& cfg,
                                  int rows, int steps, bpar::util::Rng& rng) {
  bpar::rnn::BatchData batch;
  batch.x.reserve(static_cast<std::size_t>(steps));
  for (int t = 0; t < steps; ++t) {
    bpar::tensor::Matrix m(rows, cfg.input_size);
    bpar::tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
    batch.x.push_back(std::move(m));
  }
  const int labels = cfg.many_to_many ? steps * rows : rows;
  batch.labels.resize(static_cast<std::size_t>(labels));
  for (int& label : batch.labels) {
    label = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(in >> ticks)) return {};
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

void print_provenance(const RunOptions& opts, const Report& report,
                      const CpuTimes& start) {
  const CpuTimes now = cpu_times();
  const double ticks = now.total - start.total;
  const double steal_frac = ticks > 0.0 ? (now.steal - start.steal) / ticks
                                        : 0.0;
#if defined(BPAR_NO_TRACING)
  const bool tracing_compiled = false;
#else
  const bool tracing_compiled = true;
#endif
  using bpar::obs::json_quote;
  std::printf(
      "provenance {\"cpu\": %s, \"nproc\": %d, \"backend\": %s, "
      "\"build_type\": %s, \"bpar_tracing\": %s, \"git_sha\": %s, "
      "\"pass_signature\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %s, \"host_steal_frac\": %.4f}\n",
      json_quote(cpu_model()).c_str(), host_cores(),
      json_quote(bpar::kernels::active_backend_name()).c_str(),
      json_quote(PERFBENCH_BUILD_TYPE).c_str(),
      tracing_compiled ? "true" : "false", json_quote(opts.git_sha).c_str(),
      json_quote(report.pass_signature).c_str(),
      json_quote(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? "true" : "false", steal_frac);
}

}  // namespace perfbench
