// bpar_serve — load generator for the inference serving engine (src/serve).
// Spins up an InferenceEngine, drives it with N client threads — closed
// loop by default, open loop (fixed-rate Poisson arrivals) with --rate —
// and reports client-observed latency percentiles, throughput, the
// per-Status outcome breakdown, and the engine's batching/resilience
// counters.
//
//   ./bpar_serve --clients 8 --requests 50 --max-batch 8 --max-delay-us 500
//   ./bpar_serve --no-batching        # batch-1 latency mode
//   ./bpar_serve --rate 2000 --priorities high,normal,batch
//                --shed-wait-us 4000  # open-loop overload + shedding
//   ./bpar_serve --faults 'seed=7,throw=0.02,stall=0.002'
//                --watchdog-ms 200 --rate 500   # chaos serving
//
// With --trace/--metrics the run emits obs telemetry that `bpar_prof
// analyze` consumes unchanged (serve.queue_us / serve.batch_form_us /
// serve.exec_us histograms, shed/retry counters, dispatcher spans).
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/backend.hpp"
#include "obs/session.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "taskrt/fault.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<int> parse_seq_list(const std::string& text) {
  std::vector<int> out;
  for (const std::string& item : split_list(text)) {
    out.push_back(std::stoi(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bpar::util::ArgParser args("bpar_serve", "serving load generator");
  bpar::obs::add_cli_flags(args);
  args.add_int("clients", 8, "concurrent client threads");
  args.add_int("requests", 50, "requests per client");
  args.add_int("workers", 4, "executor worker threads");
  args.add_int("replicas", 4, "executor replicas (clamped to batch rows)");
  args.add_int("max-batch", 8, "largest coalesced micro-batch");
  args.add_int("max-delay-us", 500, "micro-batch flush deadline");
  args.add_int("queue", 256, "bounded request queue capacity");
  args.add_int("hidden", 64, "hidden size");
  args.add_int("layers", 2, "BLSTM layers");
  args.add_int("classes", 10, "output classes");
  args.add_string("seq", "20", "comma-separated request sequence lengths");
  args.add_int("seed", 1, "request generator seed");
  args.add_flag("no-batching", "serve every request alone (batch-1 mode)");
  args.add_flag("no-labels",
                "send unlabeled requests (skips loss/logit extraction)");
  args.add_string("backend", "",
                  "kernel backend: scalar|avx2|avx512|neon|native "
                  "(default: auto-detect, or $BPAR_KERNEL_BACKEND)");
  args.add_flag("quantized",
                "serve with int8 quantized weights (DESIGN.md 5g)");
  args.add_int("rate", 0,
               "open-loop offered load in requests/s, Poisson arrivals "
               "(0 = closed loop)");
  args.add_string("priorities", "normal",
                  "comma-separated priority cycle: high|normal|batch");
  args.add_int("deadline-us", 0, "per-request relative deadline (0 = none)");
  args.add_string("faults", "",
                  "deterministic fault injection spec for the executor "
                  "runtime, e.g. 'seed=7,throw=0.02,stall=0.002'");
  args.add_int("watchdog-ms", 0,
               "engine watchdog: release injected stalls after this long "
               "without dispatcher progress (0 = off)");
  args.add_int("shed-wait-us", 0,
               "load-shed queue-delay threshold (0 = 16 * max-delay-us)");
  args.add_int("max-retries", 2, "whole-batch retries before bisection");
  args.add_int("breaker", 3,
               "consecutive failed batches before a degradation step "
               "(0 = breaker off)");
  args.add_int("stats-port", -1,
               "live stats endpoint port: /metrics /statz /healthz "
               "(-1 = off, 0 = ephemeral)");
  args.add_int("sampler-period-ms", 1000,
               "metrics sampler tick period for windowed rollups");
  args.add_flag("no-request-trace",
                "disable per-request stage tracing (bpar_prof request)");
  args.add_int("slo-target-ms", 50,
               "latency SLO target for the built-in SLO tracker");
  args.add_string("dump-dir", "",
                  "arm the flight recorder: breaker trips, watchdog fires, "
                  "SLO alerts, and GET /debug/dump write trace+report "
                  "bundles here (empty = off)");
  args.add_int("dump-debounce-ms", 5000,
               "minimum spacing between flight-recorder dumps");
  args.add_flag("profile",
                "run the continuous span-stack profiler (GET /profilez "
                "windows; dump bundles carry a folded profile)");
  args.add_int("profiler-period-us", 2000, "profiler sampling period");
  if (!args.parse(argc, argv)) return 1;
  bpar::obs::ObsSession session("bpar_serve", args,
                                bpar::obs::ReportMode::kJson);

  const std::string backend = args.get_string("backend");
  if (!backend.empty() && !bpar::kernels::set_backend(backend)) {
    std::fprintf(stderr,
                 "bpar_serve: unknown --backend '%s' (available:", backend.c_str());
    for (const auto* b : bpar::kernels::available_backends()) {
      std::fprintf(stderr, " %s", b->name);
    }
    std::fprintf(stderr, ")\n");
    return 1;
  }

  const std::vector<int> seq_lengths = parse_seq_list(args.get_string("seq"));
  if (seq_lengths.empty()) {
    std::fprintf(stderr, "bpar_serve: --seq must name at least one length\n");
    return 1;
  }

  bpar::rnn::NetworkConfig cfg;
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.input_size = 16;
  cfg.hidden_size = static_cast<int>(args.get_int("hidden"));
  cfg.num_layers = static_cast<int>(args.get_int("layers"));
  cfg.seq_length = seq_lengths.front();
  cfg.batch_size = static_cast<int>(args.get_int("max-batch"));
  cfg.num_classes = static_cast<int>(args.get_int("classes"));

  bpar::serve::EngineOptions engine_options;
  engine_options.executor.num_workers =
      static_cast<int>(args.get_int("workers"));
  engine_options.executor.num_replicas =
      static_cast<int>(args.get_int("replicas"));
  engine_options.max_batch = static_cast<int>(args.get_int("max-batch"));
  engine_options.max_delay_us =
      static_cast<std::uint32_t>(args.get_int("max-delay-us"));
  engine_options.max_queue =
      static_cast<std::size_t>(args.get_int("queue"));
  engine_options.enable_batching = !args.flag("no-batching");
  engine_options.quantized = args.flag("quantized");
  engine_options.shed_wait_us =
      static_cast<std::uint32_t>(args.get_int("shed-wait-us"));
  engine_options.max_batch_retries =
      static_cast<int>(args.get_int("max-retries"));
  engine_options.breaker_threshold =
      static_cast<int>(args.get_int("breaker"));
  engine_options.watchdog_ms =
      static_cast<std::uint32_t>(args.get_int("watchdog-ms"));
  engine_options.stats_port = static_cast<int>(args.get_int("stats-port"));
  engine_options.sampler_period_ms =
      static_cast<std::uint32_t>(args.get_int("sampler-period-ms"));
  engine_options.trace_requests = !args.flag("no-request-trace");
  engine_options.slo.latency_target_us =
      static_cast<double>(args.get_int("slo-target-ms")) * 1000.0;
  engine_options.dump_dir = args.get_string("dump-dir");
  engine_options.dump_debounce_ms =
      static_cast<std::uint32_t>(args.get_int("dump-debounce-ms"));
  engine_options.enable_profiler = args.flag("profile");
  engine_options.profiler_period_us =
      static_cast<std::uint32_t>(args.get_int("profiler-period-us"));
  try {
    engine_options.executor.faults =
        bpar::taskrt::FaultSpec::parse(args.get_string("faults"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bpar_serve: bad --faults: %s\n", e.what());
    return 1;
  }

  bpar::serve::LoadgenOptions load_options;
  load_options.clients = static_cast<int>(args.get_int("clients"));
  load_options.requests_per_client =
      static_cast<int>(args.get_int("requests"));
  load_options.seq_lengths = seq_lengths;
  load_options.with_labels = !args.flag("no-labels");
  load_options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  load_options.rate_rps = static_cast<double>(args.get_int("rate"));
  load_options.deadline_us =
      static_cast<std::uint32_t>(args.get_int("deadline-us"));
  load_options.priorities.clear();
  try {
    for (const std::string& name : split_list(args.get_string("priorities"))) {
      load_options.priorities.push_back(bpar::serve::parse_priority(name));
    }
  } catch (const bpar::util::Error& e) {
    std::fprintf(stderr, "bpar_serve: bad --priorities: %s\n", e.what());
    return 1;
  }
  if (load_options.priorities.empty()) {
    load_options.priorities = {bpar::serve::Priority::kNormal};
  }

  const std::string traffic =
      load_options.rate_rps > 0.0
          ? "open loop @ " + std::to_string(args.get_int("rate")) + " rps"
          : std::string("closed loop");
  std::printf("bpar_serve: %d clients x %d requests (%s), max_batch=%d, "
              "max_delay=%ldus, batching=%s, backend=%s, weights=%s, "
              "faults=%s\n\n",
              load_options.clients, load_options.requests_per_client,
              traffic.c_str(),
              engine_options.max_batch,
              static_cast<long>(engine_options.max_delay_us),
              engine_options.enable_batching ? "on" : "off",
              bpar::kernels::active_backend_name(),
              engine_options.quantized ? "int8" : "fp32",
              engine_options.executor.faults.enabled() ? "on" : "off");

  // With --trace, the engine records per-task timing and is kept alive
  // past session.finish() so its unified (task slices + obs spans) trace
  // replaces the spans-only one — `bpar_prof analyze` needs the task
  // slices. An armed flight recorder also wants per-task timing: a dump
  // whose trace carries task slices is analyzable, one without is just
  // spans.
  const std::string trace_path = args.get_string("trace");
  engine_options.record_trace =
      !trace_path.empty() || !engine_options.dump_dir.empty();
  bpar::serve::InferenceEngine engine(cfg, engine_options);
  if (engine.stats_port() >= 0) {
    std::printf("stats endpoint: http://127.0.0.1:%d  "
                "(/metrics /statz /healthz /profilez /debug/dump)\n",
                engine.stats_port());
    std::fflush(stdout);
  }
  engine.warmup(seq_lengths);
  const bpar::serve::LoadgenResult load =
      bpar::serve::run_load(engine, load_options);
  engine.shutdown();
  const bpar::serve::EngineStats stats = engine.stats();
  if (const auto* flight = engine.flight_recorder()) {
    std::printf("flight recorder: %llu dump(s) in %s  (%llu suppressed)\n",
                static_cast<unsigned long long>(flight->dumps()),
                flight->options().dir.c_str(),
                static_cast<unsigned long long>(flight->suppressed()));
    std::fflush(stdout);
  }

  bpar::util::Table table({"mode", "offered rps", "throughput rps", "p50 ms",
                           "p95 ms", "p99 ms", "mean ms", "ok", "rejected",
                           "shed", "expired", "failed", "batches",
                           "padded rows"});
  bpar::util::Table status_table(
      {"mode", "status", "count", "p50 ms", "p95 ms", "p99 ms"});
  bpar::util::Table resilience_table(
      {"mode", "retries", "bisections", "internal errors", "degraded",
       "recovered", "degrade level", "watchdog fires", "rebuilds",
       "health"});
  // One run; its row keeps the "cached" label (every run replays the
  // program cache) so baseline keys like table/serving/cached/ok hold.
  const std::string name = "cached";
  const auto& p = load.latency_ms;
  table.add_row({name, bpar::util::fmt(load.offered_rps, 1),
                 bpar::util::fmt(load.throughput_rps, 1),
                 bpar::util::fmt(p.p50, 3), bpar::util::fmt(p.p95, 3),
                 bpar::util::fmt(p.p99, 3), bpar::util::fmt(p.mean, 3),
                 std::to_string(load.ok), std::to_string(load.rejected),
                 std::to_string(load.shed), std::to_string(load.expired),
                 std::to_string(load.failed), std::to_string(stats.batches),
                 std::to_string(stats.padded_rows)});
  for (int s = 0; s < bpar::serve::kNumStatuses; ++s) {
    const auto idx = static_cast<std::size_t>(s);
    if (load.by_status[idx] == 0) continue;
    const auto& sp = load.latency_by_status[idx];
    status_table.add_row(
        {name,
         bpar::serve::status_name(static_cast<bpar::serve::Status>(s)),
         std::to_string(load.by_status[idx]),
         bpar::util::fmt(sp.p50, 3), bpar::util::fmt(sp.p95, 3),
         bpar::util::fmt(sp.p99, 3)});
  }
  resilience_table.add_row(
      {name, std::to_string(stats.retries), std::to_string(stats.bisections),
       std::to_string(stats.internal_errors),
       std::to_string(stats.degraded_steps),
       std::to_string(stats.recovered_steps),
       std::to_string(stats.degrade_level),
       std::to_string(stats.watchdog_fires),
       std::to_string(stats.executor_rebuilds),
       bpar::serve::health_name(stats.health)});
  table.print("serving load test");
  status_table.print("per-status outcomes");
  resilience_table.print("resilience counters");
  session.report().add_table("serving", table.header(), table.data());
  session.report().add_table("serving_status", status_table.header(),
                             status_table.data());
  session.report().add_table("serving_resilience", resilience_table.header(),
                             resilience_table.data());
  session.finish();
  if (!trace_path.empty()) {
    engine.write_unified_trace(trace_path);
    std::printf("\nwrote %s (analyze with: bpar_prof analyze %s)\n",
                trace_path.c_str(), trace_path.c_str());
  }
  return 0;
}
