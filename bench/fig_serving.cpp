// fig_serving — throughput vs latency for the inference serving engine
// (DESIGN.md §5f). Unlike the paper-figure benches this one executes for
// real: each configuration spins up an InferenceEngine and drives it with a
// closed-loop client fleet, sweeping the client count with dynamic
// micro-batching on and off. More clients raise offered load; with batching
// on the dispatcher coalesces them into larger micro-batches, trading a
// bounded queueing delay (max_delay_us) for throughput, while the batch-1
// column shows the latency floor.
//
//   ./fig_serving [--requests N] [--workers N] [--max-batch N]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("fig_serving",
                             "serving throughput vs latency sweep");
  bench::add_common_flags(args);
  args.add_int("requests", 40, "requests per client");
  args.add_int("workers", 4, "executor worker threads");
  args.add_int("max-batch", 8, "largest coalesced micro-batch");
  args.add_int("max-delay-us", 500, "micro-batch flush deadline");
  args.add_int("hidden", 64, "hidden size");
  args.add_int("layers", 2, "BLSTM layers");
  args.add_int("seq", 20, "request sequence length");
  if (!args.parse(argc, argv)) return 1;

  bpar::rnn::NetworkConfig cfg;
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.input_size = 16;
  cfg.hidden_size = static_cast<int>(args.get_int("hidden"));
  cfg.num_layers = static_cast<int>(args.get_int("layers"));
  cfg.seq_length = static_cast<int>(args.get_int("seq"));
  cfg.batch_size = static_cast<int>(args.get_int("max-batch"));
  cfg.num_classes = 10;

  bpar::serve::EngineOptions base;
  base.executor.num_workers = static_cast<int>(args.get_int("workers"));
  base.executor.num_replicas = static_cast<int>(args.get_int("workers"));
  base.max_batch = static_cast<int>(args.get_int("max-batch"));
  base.max_delay_us =
      static_cast<std::uint32_t>(args.get_int("max-delay-us"));

  bpar::serve::LoadgenOptions load;
  load.requests_per_client = static_cast<int>(args.get_int("requests"));
  load.seq_lengths = {cfg.seq_length};

  const std::vector<int> seq_lengths = {cfg.seq_length};
  double peak_rps = 0.0;  // best closed-loop batched throughput
  bpar::util::Table table({"config", "throughput(rps)", "p50(ms)", "p99(ms)",
                           "mean batch rows"});
  for (const bool batching : {false, true}) {
    for (const int clients : {1, 2, 4, 8}) {
      bpar::serve::EngineOptions options = base;
      options.enable_batching = batching;
      bpar::serve::InferenceEngine engine(cfg, options);
      engine.warmup(seq_lengths);
      load.clients = clients;
      const auto result = bpar::serve::run_load(engine, load);
      engine.shutdown();
      const auto stats = engine.stats();
      const double mean_rows =
          stats.batches > 0
              ? static_cast<double>(stats.completed + stats.padded_rows) /
                    static_cast<double>(stats.batches)
              : 0.0;
      if (batching) peak_rps = std::max(peak_rps, result.throughput_rps);
      const std::string key = std::to_string(clients) +
                              (batching ? "c-batched" : "c-single");
      table.add_row({key, bpar::util::fmt(result.throughput_rps, 1),
                     bpar::util::fmt(result.latency_ms.p50, 3),
                     bpar::util::fmt(result.latency_ms.p99, 3),
                     bpar::util::fmt(mean_rows, 2)});
    }
  }
  table.print("serving throughput vs latency");
  std::printf(
      "\nwith batching on, added clients coalesce into larger micro-batches\n"
      "(mean rows ↑): throughput scales while p99 stays bounded by the\n"
      "flush deadline; batching off serves every request alone.\n");
  bench::emit_csv(args, table, "fig_serving");

  // Open-loop sweep (DESIGN.md §5h): offered load is fixed by a Poisson
  // arrival process — it does not politely back off when the engine slows
  // down, so this is the curve that shows admission control honestly.
  // Rates are multiples of the closed-loop peak measured above: below the
  // knee latency stays near the flush deadline; past saturation the
  // backlog grows until load shedding answers the overflow as kShed and
  // the served (kOk) tail stays bounded instead of diverging.
  bpar::util::Table open_table({"offered x peak", "offered(rps)",
                                "served(rps)", "ok", "shed", "rejected",
                                "p50(ms)", "p95(ms)", "p99(ms)"});
  for (const double fraction : {0.5, 0.9, 1.5, 2.0}) {
    const double rate = std::max(1.0, peak_rps * fraction);
    bpar::serve::EngineOptions options = base;
    options.enable_batching = true;
    bpar::serve::InferenceEngine engine(cfg, options);
    engine.warmup(seq_lengths);
    bpar::serve::LoadgenOptions open = load;
    open.clients = 8;
    open.rate_rps = rate;
    // Size the run to a ~2s window at the offered rate so every sweep
    // point measures a comparable interval.
    open.requests_per_client = std::max(
        10, static_cast<int>(rate * 2.0 / open.clients));
    const auto result = bpar::serve::run_load(engine, open);
    engine.shutdown();
    open_table.add_row({bpar::util::fmt(fraction, 2),
                        bpar::util::fmt(result.offered_rps, 1),
                        bpar::util::fmt(result.throughput_rps, 1),
                        std::to_string(result.ok),
                        std::to_string(result.shed),
                        std::to_string(result.rejected),
                        bpar::util::fmt(result.latency_ms.p50, 3),
                        bpar::util::fmt(result.latency_ms.p95, 3),
                        bpar::util::fmt(result.latency_ms.p99, 3)});
  }
  open_table.print("open-loop offered load vs latency");
  std::printf(
      "\npast the closed-loop peak (~%.0f rps) the open-loop backlog grows\n"
      "until queue-delay shedding engages: served rps plateaus, the kOk\n"
      "tail stays bounded, and the overflow is answered kShed.\n",
      peak_rps);
  bench::emit_csv(args, open_table, "fig_serving_openloop");

  // Observability overhead (DESIGN.md §5i/§5j): the same closed-loop
  // 8-client batched configuration with the observability plane off, on
  // (request-stage tracing + 1 s sampler + live stats listener), and on
  // plus the continuous span-stack profiler. The budget is <= ~2% on p50
  // for either enabled row — the plane is sampling + bounded rings (and
  // the profiler a few relaxed stores per span), not per-request heavy
  // lifting, and these rows keep it honest.
  bpar::util::Table obs_table({"config", "throughput(rps)", "p50(ms)",
                               "p99(ms)"});
  struct ObsConfig {
    const char* name;
    bool obs_on;
    bool profiler_on;
  };
  for (const auto& mode : {ObsConfig{"obs-off", false, false},
                           ObsConfig{"obs-on", true, false},
                           ObsConfig{"prof-on", true, true}}) {
    bpar::serve::EngineOptions options = base;
    options.enable_batching = true;
    options.trace_requests = mode.obs_on;
    options.sampler_period_ms = 1000;
    options.stats_port = mode.obs_on ? 0 : -1;  // ephemeral listener when on
    options.enable_profiler = mode.profiler_on;
    bpar::serve::InferenceEngine engine(cfg, options);
    engine.warmup(seq_lengths);
    load.clients = 8;
    const auto result = bpar::serve::run_load(engine, load);
    engine.shutdown();
    obs_table.add_row({mode.name,
                       bpar::util::fmt(result.throughput_rps, 1),
                       bpar::util::fmt(result.latency_ms.p50, 3),
                       bpar::util::fmt(result.latency_ms.p99, 3)});
  }
  obs_table.print("observability overhead (off vs on vs on+profiler)");
  bench::emit_csv(args, obs_table, "fig_serving_obs");
  return 0;
}
