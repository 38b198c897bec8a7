// Open-loop serving workloads through serve::InferenceEngine.
//
// The load generator is the benchmark's own: a Poisson schedule fixed by
// the seed before the phase starts, one sender thread sleeping to each due
// time, and per request length one reaper thread blocking on that length's
// futures in send order. Latency is timed from the due time, so a stall
// also charges the requests it delays, and the sender's own lateness is
// reported (serve.gen_late_ms_p99).
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "serve/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bpar::serve::InferenceEngine;
using bpar::serve::Request;
using bpar::serve::Response;
using bpar::serve::Status;

constexpr std::array<int, 3> kLengths = {10, 20, 40};  // cycled per request
constexpr int kPerLength = 64;  // distinct sequences of each length
// The shape the per-layer view runs the engine's executor at: a full
// micro-batch of the middle length.
constexpr int kLayerRows = 8;
constexpr int kLayerSteps = 20;

struct Phase {
  const char* name;
  double rps;
  double seconds;
};

bpar::rnn::NetworkConfig serve_config(std::uint64_t seed) {
  bpar::rnn::NetworkConfig cfg;
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.input_size = 16;
  cfg.hidden_size = 64;
  cfg.num_layers = 2;
  cfg.seq_length = kLengths.back();
  cfg.batch_size = kLayerRows;
  cfg.num_classes = 10;
  cfg.seed = seed;
  return cfg;
}

/// features[length index][entry], row-major by timestep.
using Pool = std::array<std::vector<std::vector<float>>, kLengths.size()>;

Pool make_pool(const bpar::rnn::NetworkConfig& cfg, std::uint64_t seed) {
  bpar::util::Rng rng(seed ^ 0x5e7eULL);
  Pool pool;
  for (std::size_t li = 0; li < kLengths.size(); ++li) {
    for (int e = 0; e < kPerLength; ++e) {
      std::vector<float> f(static_cast<std::size_t>(kLengths[li]) *
                           static_cast<std::size_t>(cfg.input_size));
      for (float& v : f) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      pool[li].push_back(std::move(f));
    }
  }
  return pool;
}

Request make_request(const Pool& pool, std::size_t li, int entry) {
  Request req;
  req.steps = kLengths[li];
  req.features = pool[li][static_cast<std::size_t>(entry)];
  req.want_logits = true;
  return req;
}

struct Outcome {
  Status status = Status::kOk;
  std::size_t length = 0;
  int entry = 0;
  double latency_ms = 0.0;  // due time -> response
  double late_ms = 0.0;     // due time -> submit
  double done_s = 0.0;      // phase start -> response
  double queue_us = 0.0;
  double form_us = 0.0;
  double exec_us = 0.0;
  int batch_rows = 0;
  int real_rows = 0;
  std::vector<float> logits;
};

struct PhaseResult {
  const char* name = "";
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;  // phase start -> last response
};

/// The sent requests of one length, in send order. The engine answers the
/// requests of one length (and priority class) first in, first out, so a
/// reaper blocking on them in order times each response when it arrives.
struct Lane {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<Response>>> sent;  // by mu
  bool closed = false;                                             // by mu
  std::exception_ptr error;
};

PhaseResult run_phase(InferenceEngine& engine, const Pool& pool,
                      const Phase& phase, bpar::util::Rng& rng) {
  struct Due {
    double offset_s;
    std::size_t length;
    int entry;
  };
  std::vector<Due> schedule;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / phase.rps;
    if (t >= phase.seconds) break;
    const std::size_t li = schedule.size() % kLengths.size();
    schedule.push_back(
        {t, li, static_cast<int>(rng.uniform_index(kPerLength))});
  }

  PhaseResult result;
  result.name = phase.name;
  result.outcomes.resize(schedule.size());
  std::array<Lane, kLengths.size()> lanes;
  std::exception_ptr sender_error;
  // Lead time so the first due time is not already past when the sender
  // thread starts.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].offset_s));
  };

  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        Request req = make_request(pool, schedule[i].length, schedule[i].entry);
        std::this_thread::sleep_until(due_at(i));
        const auto sent = Clock::now();
        std::future<Response> fut = engine.submit(std::move(req));
        result.outcomes[i].late_ms =
            std::chrono::duration<double, std::milli>(sent - due_at(i)).count();
        Lane& lane = lanes[schedule[i].length];
        {
          const std::lock_guard<std::mutex> lock(lane.mu);
          lane.sent.emplace_back(i, std::move(fut));
        }
        lane.cv.notify_one();
      }
    } catch (...) {
      sender_error = std::current_exception();
    }
    for (Lane& lane : lanes) {
      {
        const std::lock_guard<std::mutex> lock(lane.mu);
        lane.closed = true;
      }
      lane.cv.notify_one();
    }
  });
  std::vector<std::thread> reapers;
  for (Lane& lane : lanes) {
    reapers.emplace_back([&] {
      try {
        for (;;) {
          std::pair<std::size_t, std::future<Response>> s;
          {
            std::unique_lock<std::mutex> lock(lane.mu);
            lane.cv.wait(lock,
                         [&] { return !lane.sent.empty() || lane.closed; });
            if (lane.sent.empty()) break;
            s = std::move(lane.sent.front());
            lane.sent.pop_front();
          }
          Response r = s.second.get();
          const auto done = Clock::now();
          const std::size_t i = s.first;
          Outcome& o = result.outcomes[i];
          o.status = r.status;
          o.length = schedule[i].length;
          o.entry = schedule[i].entry;
          o.latency_ms =
              std::chrono::duration<double, std::milli>(done - due_at(i))
                  .count();
          o.done_s = std::chrono::duration<double>(done - start).count();
          o.queue_us = r.queue_us;
          o.form_us = r.batch_form_us;
          o.exec_us = r.exec_us;
          o.batch_rows = r.batch_rows;
          o.real_rows = r.real_rows;
          o.logits = std::move(r.logits);
        }
      } catch (...) {
        lane.error = std::current_exception();
      }
    });
  }
  sender.join();
  for (std::thread& reaper : reapers) reaper.join();
  if (sender_error) std::rethrow_exception(sender_error);
  for (const Lane& lane : lanes) {
    if (lane.error) std::rethrow_exception(lane.error);
  }
  for (const Outcome& o : result.outcomes) {
    result.wall_s = std::max(result.wall_s, o.done_s);
  }
  return result;
}

struct PhaseStats {
  std::size_t sent = 0, ok = 0, shed = 0, rejected = 0;
  std::vector<double> latency_ms;
};

PhaseStats phase_stats(const PhaseResult& phase) {
  PhaseStats s;
  s.sent = phase.outcomes.size();
  for (const Outcome& o : phase.outcomes) {
    if (o.status == Status::kOk) {
      ++s.ok;
      s.latency_ms.push_back(o.latency_ms);
    } else if (o.status == Status::kShed) {
      ++s.shed;
    } else if (o.status == Status::kRejected) {
      ++s.rejected;
    }
  }
  return s;
}

void report_phase_layers(Report& report, const PhaseResult& phase) {
  std::vector<double> queue, form, exec;
  // Each kOk response of a micro-batch with b executed rows, r of them
  // real, contributes 1/r of that batch: the sums below count batches and
  // executed rows exactly.
  double batches = 0.0, executed = 0.0, real = 0.0;
  for (const Outcome& o : phase.outcomes) {
    if (o.status != Status::kOk || o.real_rows <= 0) continue;
    queue.push_back(o.queue_us);
    form.push_back(o.form_us);
    exec.push_back(o.exec_us);
    batches += 1.0 / o.real_rows;
    executed += static_cast<double>(o.batch_rows) / o.real_rows;
    real += 1.0;
  }
  const PhaseStats s = phase_stats(phase);
  const std::string p = std::string("serve.") + phase.name;
  report.add(p + ".queue_us_p50", median(queue), "us");
  report.add(p + ".form_us_p50", median(form), "us");
  report.add(p + ".exec_us_p50", median(exec), "us");
  report.add(p + ".batch_rows_mean", batches > 0.0 ? executed / batches : 0.0,
             "rows");
  report.add(p + ".real_rows_frac", executed > 0.0 ? real / executed : 0.0,
             "frac");
  report.add(p + ".p99_ms", quantile(s.latency_ms, 0.99), "ms");
  report.add(p + ".shed_frac",
             s.sent > 0 ? static_cast<double>(s.shed) /
                              static_cast<double>(s.sent)
                        : 0.0,
             "frac");
}

struct ServeSut {
  std::unique_ptr<InferenceEngine> engine;
  double build_ms = 0.0;
};

ServeSut setup_serve(const bpar::rnn::NetworkConfig& cfg, int workers,
                     const Pool& pool) {
  bpar::serve::EngineOptions options;
  options.executor.num_workers = workers;
  ServeSut sut;
  sut.engine = std::make_unique<InferenceEngine>(cfg, options);
  const auto t0 = Clock::now();
  (void)sut.engine->executor().infer_program(kLayerSteps, kLayerRows);
  sut.build_ms = ms_since(t0);
  sut.engine->warmup(kLengths);
  for (std::size_t li = 0; li < kLengths.size(); ++li) {
    (void)sut.engine->infer(make_request(pool, li, 0));
  }
  return sut;
}

}  // namespace

void run_serve_blstm(const RunOptions& opts, Report& report, bool loaded) {
  // The dispatcher thread takes the last core.
  const int workers = std::max(1, host_cores() - 1);
  const bpar::rnn::NetworkConfig cfg = serve_config(opts.seed);
  const Pool pool = make_pool(cfg, opts.seed);

  std::vector<double> setup_s;
  ServeSut sut =
      timed_setups([&] { return setup_serve(cfg, workers, pool); }, setup_s);
  InferenceEngine& engine = *sut.engine;
  report.pass_signature =
      engine.executor().infer_program(kLayerSteps, kLayerRows).pass_signature();

  // Fixed absolute rates, so the offered load does not move with the code
  // under test. On a 4-core AVX-512 host this engine saturates at about
  // 4700 kOk/s: `low` and `mid` are about 4 % and 21 % of that, `over`
  // about 140 %.
  std::vector<Phase> phases;
  if (loaded) {
    phases = {{"mid", 1000.0, opts.seconds / 2},
              {"over", 6500.0, opts.seconds / 2}};
  } else {
    phases = {{"low", 200.0, opts.seconds}};
  }
  bpar::util::Rng rng(opts.seed ^ 0x10adULL);
  std::vector<PhaseResult> results;
  for (const Phase& phase : phases) {
    results.push_back(run_phase(engine, pool, phase, rng));
  }
  const double rss = peak_rss_mb();
  engine.shutdown();
  if (opts.trace) report_memory(report);

  // Per-request batch-1 reference on a copy of the served weights.
  bpar::rnn::Network ref_net = engine.network();
  bpar::exec::BParExecutor ref(ref_net,
                               bpar_options(1, 1, /*quantized=*/false));
  std::array<std::vector<std::vector<float>>, kLengths.size()> expected;
  for (std::size_t li = 0; li < kLengths.size(); ++li) {
    for (int e = 0; e < kPerLength; ++e) {
      bpar::rnn::BatchData batch;
      for (int t = 0; t < kLengths[li]; ++t) {
        bpar::tensor::Matrix x(1, cfg.input_size);
        std::memcpy(x.data(),
                    pool[li][static_cast<std::size_t>(e)].data() +
                        static_cast<std::size_t>(t) * cfg.input_size,
                    sizeof(float) * static_cast<std::size_t>(cfg.input_size));
        batch.x.push_back(std::move(x));
      }
      batch.labels = {0};
      expected[li].push_back(ref.infer(batch, {.want_logits = true}).logits);
    }
  }
  std::size_t attempted = 0, failed = 0, wrong = 0;
  for (const PhaseResult& phase : results) {
    const bool over = std::strcmp(phase.name, "over") == 0;
    for (const Outcome& o : phase.outcomes) {
      const bool ok = o.status == Status::kOk;
      bool right = true;
      if (ok) {
        const auto& want =
            expected[o.length][static_cast<std::size_t>(o.entry)];
        right = want.size() == o.logits.size() &&
                std::memcmp(want.data(), o.logits.data(),
                            want.size() * sizeof(float)) == 0;
        if (!right) ++wrong;
      }
      // Sheds and full-queue rejections in `over` are the engine's
      // admission control working as designed.
      if (over && (o.status == Status::kShed ||
                   o.status == Status::kRejected)) {
        continue;
      }
      ++attempted;
      if (!ok || !right) ++failed;
    }
  }
  report.check("serve_blstm: kOk logits == batch-1 reference (bitwise)",
               wrong == 0);
  report.count(attempted, failed);
  for (const PhaseResult& phase : results) {
    const PhaseStats s = phase_stats(phase);
    std::printf("phase %-5s sent %zu ok %zu shed %zu rejected %zu other %zu\n",
                phase.name, s.sent, s.ok, s.shed, s.rejected,
                s.sent - s.ok - s.shed - s.rejected);
  }

  // Latency quantiles of the first phase's kOk responses in send order.
  const std::vector<double> latency_ms =
      phase_stats(results.front()).latency_ms;
  if (!opts.trace) {
    const PhaseResult& last = results.back();
    std::printf("p90_ms (not gated) %.6g ms\n",
                sliced_quantile(latency_ms, 0.9));
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", sliced_quantile(latency_ms, 0.5), "ms");
    report.add("throughput_per_s",
               static_cast<double>(phase_stats(last).ok) / last.wall_s, "1/s");
    report.add("peak_rss_mb", rss, "MB");
    return;
  }

  for (const PhaseResult& phase : results) report_phase_layers(report, phase);
  std::vector<double> late;
  for (const PhaseResult& phase : results) {
    for (const Outcome& o : phase.outcomes) late.push_back(o.late_ms);
  }
  report.add("serve.gen_late_ms_p99", quantile(late, 0.99), "ms");
  report.add("tail.p90_ms", sliced_quantile(latency_ms, 0.9), "ms");

  // The engine's own executor, quiescent after shutdown(), replays the
  // full-micro-batch program for the task-level view.
  bpar::exec::BParExecutor& ex = engine.executor();
  const std::size_t programs = ex.cached_programs(false);
  bpar::graph::TrainingProgram& program =
      ex.infer_program(kLayerSteps, kLayerRows);
  bpar::util::Rng batch_rng(opts.seed ^ 0xba7cULL);
  const bpar::rnn::BatchData batch =
      random_batch(cfg, kLayerRows, kLayerSteps, batch_rng);
  TaskLayerStats layers(workers);
  std::vector<double> overhead_ms;
  const LoopTimes times =
      closed_loop(2.0, 200, true, [&](std::size_t, bool traced) {
        const auto t0 = Clock::now();
        const bpar::exec::InferResult r = ex.infer(batch);
        const double ms = ms_since(t0);
        if (traced) {
          overhead_ms.push_back(ms - r.stats.wall_ms());
          layers.add(program.graph(), r.stats);
        }
        return ms;
      });
  const double peak =
      report_kernels(report, kLayerRows, 4 * cfg.hidden_size, cfg.hidden_size);
  layers.report(report, peak);
  report_graph(report, sut.build_ms, program.graph().size(),
               program.gemm_launches(), programs);
  report_hop(report, workers);
  report_trace_overhead(report, times);
  report_sim(report, program.graph(), workers, layers.wall_ms_p50());
  bpar::rnn::NetworkConfig shape = cfg;
  shape.seq_length = kLayerSteps;
  report_exec(report,
              ExecShape{.cfg = shape, .training = false, .workers = workers},
              median(times.traced_ms), median(overhead_ms), opts.seed);
}

}  // namespace perfbench
