// Serving engine suite (DESIGN.md §5f): micro-batcher flush rules, padding
// masking (batched results must match a batch-1 sequential reference),
// cached-program determinism, FIFO fairness, backpressure, deadlines, and a
// many-client concurrency smoke that doubles as the TSan target.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "exec/sequential.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_server.hpp"
#include "rnn/network.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "taskrt/fault.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

using serve::EngineOptions;
using serve::InferenceEngine;
using serve::LoadgenOptions;
using serve::Request;
using serve::Response;
using serve::Status;

rnn::NetworkConfig small_config(int seq = 6, int max_batch = 4) {
  rnn::NetworkConfig cfg;
  cfg.cell = rnn::CellType::kLstm;
  cfg.input_size = 5;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.seq_length = seq;
  cfg.batch_size = max_batch;
  cfg.num_classes = 4;
  return cfg;
}

EngineOptions quiet_options(int max_batch = 4) {
  EngineOptions options;
  options.executor.num_workers = 2;
  options.executor.num_replicas = 2;
  options.max_batch = max_batch;
  // Sanitizer runs are 10-20x slower than real time; keep the queue-delay
  // shed valve out of play unless a test dials it in explicitly.
  options.shed_wait_us = 10'000'000;
  return options;
}

/// The request as a batch-1 BatchData for the reference executor.
rnn::BatchData unit_batch(const rnn::NetworkConfig& cfg,
                          const Request& request) {
  rnn::BatchData batch;
  batch.x.resize(static_cast<std::size_t>(request.steps));
  for (int t = 0; t < request.steps; ++t) {
    auto& m = batch.x[static_cast<std::size_t>(t)];
    m.resize(1, cfg.input_size);
    for (int f = 0; f < cfg.input_size; ++f) {
      m.view().at(0, f) =
          request.features[static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(cfg.input_size) +
                           static_cast<std::size_t>(f)];
    }
  }
  batch.labels = request.labels;
  return batch;
}

TEST(ServeBucketRows, PowersOfTwoClampedToMaxBatch) {
  EXPECT_EQ(serve::BatchRunner::bucket_rows(1, 8), 1);
  EXPECT_EQ(serve::BatchRunner::bucket_rows(2, 8), 2);
  EXPECT_EQ(serve::BatchRunner::bucket_rows(3, 8), 4);
  EXPECT_EQ(serve::BatchRunner::bucket_rows(5, 8), 8);
  EXPECT_EQ(serve::BatchRunner::bucket_rows(8, 8), 8);
  EXPECT_EQ(serve::BatchRunner::bucket_rows(3, 6), 4);
  EXPECT_EQ(serve::BatchRunner::bucket_rows(5, 6), 6);   // clamped, not 8
  EXPECT_EQ(serve::BatchRunner::bucket_rows(6, 6), 6);
}

TEST(ServeEngine, RepeatedInferIsBitExact) {
  const auto cfg = small_config();
  InferenceEngine engine(cfg, quiet_options());
  Request request = serve::make_request(cfg, cfg.seq_length, 7,
                                        /*with_labels=*/true);
  request.want_logits = true;

  const Response first = engine.infer(request);
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_FALSE(first.logits.empty());
  // Cached-program replays must be deterministic down to the bit.
  for (int i = 0; i < 4; ++i) {
    const Response again = engine.infer(request);
    ASSERT_EQ(again.status, Status::kOk);
    EXPECT_EQ(again.predictions, first.predictions);
    EXPECT_EQ(again.logits, first.logits);  // float-exact
    EXPECT_EQ(again.loss, first.loss);
  }
  // All five identical requests hit ONE cached forward program.
  EXPECT_EQ(engine.executor().cached_programs(false), 1U);
  EXPECT_EQ(engine.stats().batches, 5U);
}

TEST(ServeEngine, PaddedBatchMatchesSequentialReference) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50000;  // long enough for 3 submits to coalesce
  InferenceEngine engine(cfg, options);

  // Reference network with the engine's exact weights.
  rnn::NetworkConfig ref_cfg = cfg;
  ref_cfg.batch_size = 1;
  rnn::Network ref_net(ref_cfg);
  {
    std::stringstream weights;
    engine.network().save(weights);
    ref_net.load(weights);
  }
  exec::SequentialExecutor ref(ref_net);

  std::vector<Request> requests;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request r = serve::make_request(cfg, cfg.seq_length, seed, true);
    r.want_logits = true;
    requests.push_back(std::move(r));
  }
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& r : requests) futures.push_back(engine.submit(r));

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, Status::kOk);
    // 3 real rows padded up to the 4-row bucket.
    EXPECT_EQ(response.real_rows, 3);
    EXPECT_EQ(response.batch_rows, 4);

    const auto expect =
        ref.infer(unit_batch(ref_cfg, requests[i]), {.want_logits = true});
    EXPECT_EQ(response.predictions, expect.predictions);
    EXPECT_NEAR(response.loss, expect.loss, 1e-5);
    ASSERT_EQ(response.logits.size(), expect.logits.size());
    for (std::size_t k = 0; k < expect.logits.size(); ++k) {
      EXPECT_NEAR(response.logits[k], expect.logits[k], 1e-4F) << "logit " << k;
    }
  }
  EXPECT_EQ(engine.stats().batches, 1U);
  EXPECT_EQ(engine.stats().padded_rows, 1U);
}

TEST(ServeBatcher, FlushesWhenFull) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 10'000'000;  // would wait ten seconds if size
                                      // didn't trigger the flush
  InferenceEngine engine(cfg, options);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    futures.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  for (auto& f : futures) {
    const Response response = f.get();
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.real_rows, 4);
  }
  EXPECT_EQ(engine.stats().batches, 1U);
  EXPECT_EQ(engine.stats().padded_rows, 0U);
}

TEST(ServeBatcher, FlushesOnDeadlineWhenUnderfull) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/8);
  options.max_delay_us = 2000;
  InferenceEngine engine(cfg, options);

  auto f0 = engine.submit(serve::make_request(cfg, cfg.seq_length, 0, true));
  auto f1 = engine.submit(serve::make_request(cfg, cfg.seq_length, 1, true));
  const Response r0 = f0.get();
  const Response r1 = f1.get();
  EXPECT_EQ(r0.status, Status::kOk);
  EXPECT_EQ(r1.status, Status::kOk);
  // Both served without 6 more requests ever arriving.
  EXPECT_LE(r0.real_rows, 2);
  EXPECT_GE(engine.stats().batches, 1U);
  EXPECT_EQ(engine.stats().completed, 2U);
}

TEST(ServeBatcher, FifoOrderAcrossBatches) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/2);
  InferenceEngine engine(cfg, options);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    futures.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  // FIFO: by the time the LAST submission is answered, every earlier
  // same-shape request must already have its response.
  EXPECT_EQ(futures.back().get().status, Status::kOk);
  for (std::size_t i = 0; i + 1 < futures.size(); ++i) {
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " overtaken by a later one";
    EXPECT_EQ(futures[i].get().status, Status::kOk);
  }
}

TEST(ServeEngine, MixedLengthsOnlyCoalesceSameShape) {
  const auto cfg = small_config(/*seq=*/6);
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 20000;
  InferenceEngine engine(cfg, options);

  auto fa = engine.submit(serve::make_request(cfg, 6, 1, true));
  auto fb = engine.submit(serve::make_request(cfg, 9, 2, true));
  auto fc = engine.submit(serve::make_request(cfg, 6, 3, true));
  const Response ra = fa.get();
  const Response rb = fb.get();
  const Response rc = fc.get();
  ASSERT_EQ(ra.status, Status::kOk);
  ASSERT_EQ(rb.status, Status::kOk);
  ASSERT_EQ(rc.status, Status::kOk);
  // The length-9 request never rides in a length-6 batch.
  EXPECT_EQ(rb.real_rows, 1);
  EXPECT_EQ(rb.predictions.size(), 1U);
  // Two shape groups → at least two micro-batches, and exactly one cached
  // forward program per (length, row-bucket) pair actually served.
  EXPECT_GE(engine.stats().batches, 2U);
  EXPECT_EQ(engine.executor().cached_programs(false), 2U);
}

TEST(ServeEngine, RejectsWhenQueueFull) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/64);
  options.max_delay_us = 10'000'000;  // dispatcher sits on the open batch
  options.max_queue = 4;
  InferenceEngine engine(cfg, options);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    futures.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  // The 5th submission bounced off the bounded queue immediately.
  EXPECT_EQ(futures.back().get().status, Status::kRejected);
  engine.shutdown();  // drains the four queued requests
  int ok = 0;
  for (std::size_t i = 0; i + 1 < futures.size(); ++i) {
    ok += futures[i].get().status == Status::kOk ? 1 : 0;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(engine.stats().rejected, 1U);
  EXPECT_EQ(engine.stats().completed, 4U);
}

TEST(ServeEngine, ExpiredRequestsSkipExecution) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 20000;
  InferenceEngine engine(cfg, options);

  Request late = serve::make_request(cfg, cfg.seq_length, 1, true);
  late.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);  // already expired
  auto f_late = engine.submit(std::move(late));
  std::vector<std::future<Response>> rest;
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    rest.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  EXPECT_EQ(f_late.get().status, Status::kDeadlineExceeded);
  for (auto& f : rest) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(engine.stats().expired, 1U);
  EXPECT_EQ(engine.stats().completed, 3U);
}

TEST(ServeEngine, ValidatesRequests) {
  const auto cfg = small_config();
  InferenceEngine engine(cfg, quiet_options());

  Request bad_features = serve::make_request(cfg, cfg.seq_length, 1, true);
  bad_features.features.pop_back();
  const Response r1 = engine.infer(std::move(bad_features));
  EXPECT_EQ(r1.status, Status::kFailed);
  EXPECT_FALSE(r1.error.empty());

  Request bad_label = serve::make_request(cfg, cfg.seq_length, 1, true);
  bad_label.labels[0] = cfg.num_classes;
  EXPECT_EQ(engine.infer(std::move(bad_label)).status, Status::kFailed);

  EXPECT_EQ(engine.stats().failed, 2U);
  EXPECT_EQ(engine.stats().completed, 0U);
}

TEST(ServeEngine, ShutdownAnswersNewSubmitsWithShutdown) {
  const auto cfg = small_config();
  InferenceEngine engine(cfg, quiet_options());
  (void)engine.infer(serve::make_request(cfg, cfg.seq_length, 1, true));
  engine.shutdown();
  const Response after =
      engine.infer(serve::make_request(cfg, cfg.seq_length, 2, true));
  EXPECT_EQ(after.status, Status::kShutdown);
}

// ≥8 concurrent clients hammering the bounded queue; every submitted
// request must get exactly one response (promise semantics make duplicates
// impossible — a double set_value would throw — so conservation of counts
// is the whole story). This test is the serving TSan target.
TEST(ServeConcurrency, ManyClientsNoLostResponses) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 200;
  options.max_queue = 16;  // small enough that backpressure can trigger
  InferenceEngine engine(cfg, options);

  LoadgenOptions load;
  load.clients = 8;
  load.requests_per_client = 25;
  load.seq_lengths = {cfg.seq_length, cfg.seq_length + 2};
  const auto result = serve::run_load(engine, load);
  engine.shutdown();

  const auto stats = engine.stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(load.clients) *
      static_cast<std::uint64_t>(load.requests_per_client);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(result.ok + result.rejected + result.shed + result.expired +
                result.failed,
            total);
  EXPECT_EQ(stats.completed + stats.rejected + stats.shed + stats.expired +
                stats.failed + stats.internal_errors,
            total);
  EXPECT_EQ(result.ok, stats.completed);
  EXPECT_EQ(result.failed, 0U);
  EXPECT_GT(result.ok, 0U);
  EXPECT_EQ(engine.queue_depth(), 0U);
}

// ---- resilience layer (DESIGN.md §5h) ----

using serve::Priority;

// Satellite regression: an already-expired deadline must be answered at
// submit() — immediately, and WITHOUT occupying a bounded-queue slot.
TEST(ServeAdmission, ExpiredDeadlineAnsweredAtSubmitWithoutSlot) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50000;  // dispatcher sits on the open batch
  options.max_queue = 1;         // a single slot, taken by the live request
  InferenceEngine engine(cfg, options);

  Request expired = serve::make_request(cfg, cfg.seq_length, 2, true);
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto f = engine.submit(std::move(expired));
  // Answered synchronously — the dispatcher never sees it.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().status, Status::kDeadlineExceeded);
  // The single queue slot is still free: a live request submitted right
  // after is admitted instead of bouncing off a dead occupant.
  auto live = engine.submit(serve::make_request(cfg, cfg.seq_length, 1, true));
  engine.shutdown();  // seals the open batch
  EXPECT_EQ(live.get().status, Status::kOk);
  EXPECT_EQ(engine.stats().expired, 1U);
  EXPECT_EQ(engine.stats().rejected, 0U);
}

TEST(ServeAdmission, ClassQuotaRejectsWithoutFillingSharedQueue) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/8);
  options.max_delay_us = 10'000'000;  // queued requests stay queued
  options.max_queue = 8;
  options.class_quota[static_cast<int>(Priority::kBatch)] = 1;
  InferenceEngine engine(cfg, options);

  Request b1 = serve::make_request(cfg, cfg.seq_length, 1, true);
  b1.priority = Priority::kBatch;
  Request b2 = serve::make_request(cfg, cfg.seq_length, 2, true);
  b2.priority = Priority::kBatch;
  auto f1 = engine.submit(std::move(b1));
  auto f2 = engine.submit(std::move(b2));
  // Second kBatch submission bounced off the class quota...
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f2.get().status, Status::kRejected);
  // ...while the shared queue still admits other classes.
  auto f3 = engine.submit(serve::make_request(cfg, cfg.seq_length, 3, true));
  engine.shutdown();  // drains the open batch
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f3.get().status, Status::kOk);
  EXPECT_EQ(engine.stats().rejected, 1U);
}

// Delay-inject every task so one in-flight batch reliably blocks the
// dispatcher long enough for later submissions to pile up in the queues.
EngineOptions slow_options(int max_batch) {
  EngineOptions options = quiet_options(max_batch);
  options.executor.faults =
      taskrt::FaultSpec::parse("seed=1,delay=1,delay_us=500");
  options.max_delay_us = 500;
  options.shed_wait_us = 10'000'000;  // tests that want shedding dial it in
  return options;
}

TEST(ServePriority, HighClassServedBeforeBatchClass) {
  const auto cfg = small_config();
  EngineOptions options = slow_options(/*max_batch=*/1);  // no coalescing
  InferenceEngine engine(cfg, options);

  // Blocker seals alone; kBatch then kHigh queue up behind it.
  auto blocker =
      engine.submit(serve::make_request(cfg, cfg.seq_length, 1, true));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Request low = serve::make_request(cfg, cfg.seq_length, 2, true);
  low.priority = Priority::kBatch;
  Request high = serve::make_request(cfg, cfg.seq_length, 3, true);
  high.priority = Priority::kHigh;
  auto f_low = engine.submit(std::move(low));
  auto f_high = engine.submit(std::move(high));

  EXPECT_EQ(f_low.get().status, Status::kOk);
  // Strict priority: by the time the kBatch request is answered, the
  // LATER-submitted kHigh one must already have its response.
  ASSERT_EQ(f_high.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f_high.get().status, Status::kOk);
  EXPECT_EQ(blocker.get().status, Status::kOk);
}

TEST(ServeShedding, OverdueLowClassesShedHighNever) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/2);
  // Every batch stalls in task 0 until the test releases it, so the blocker
  // stays in flight while the backlog queues up behind it.
  options.executor.faults = taskrt::FaultSpec::parse("stall_tasks=0");
  options.shed_wait_us = 1000;  // 1ms
  InferenceEngine engine(cfg, options);
  taskrt::FaultInjector& injector =
      *engine.executor().runtime().fault_injector();

  auto blocker =
      engine.submit(serve::make_request(cfg, cfg.seq_length, 1, true));
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  while ((engine.queue_depth() != 0 || injector.active_stalls() == 0) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::vector<std::future<Response>> lows;
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    Request r = serve::make_request(cfg, cfg.seq_length, seed, true);
    r.priority = Priority::kBatch;
    lows.push_back(engine.submit(std::move(r)));
  }
  Request high = serve::make_request(cfg, cfg.seq_length, 7, true);
  high.priority = Priority::kHigh;
  auto f_high = engine.submit(std::move(high));
  // The blocker is sealed and stalled, so all six wait in the queue until
  // they are overdue; then every stalled batch is released.
  EXPECT_EQ(engine.queue_depth(), 6U);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  while (f_high.wait_for(std::chrono::milliseconds(1)) !=
         std::future_status::ready) {
    injector.release_stalls();
  }

  // Backlog at the shed check: 6 > max_batch. Sheds kBatch (oldest first)
  // until the backlog fits one micro-batch again — 4 shed, and never kHigh.
  EXPECT_EQ(f_high.get().status, Status::kOk);
  int shed = 0;
  int ok = 0;
  for (auto& f : lows) {
    const Status s = f.get().status;
    shed += s == Status::kShed ? 1 : 0;
    ok += s == Status::kOk ? 1 : 0;
  }
  EXPECT_EQ(blocker.get().status, Status::kOk);
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(engine.stats().shed, 4U);
}

// A request whose features are NaN poisons its whole micro-batch (the
// batch-mean loss goes NaN → the finite() guard fails). Retries cannot
// clear it, so bisection must isolate it: the poisoned request alone is
// answered kInternalError, and every batchmate succeeds bit-exactly (rows
// are computed independently, so results do not depend on batch shape).
TEST(ServeRecovery, BisectionIsolatesPoisonedRequestBitExactly) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50000;  // let all four coalesce
  options.max_batch_retries = 1;
  options.breaker_threshold = 0;  // breaker tested separately
  InferenceEngine engine(cfg, options);

  std::vector<Request> good;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request r = serve::make_request(cfg, cfg.seq_length, seed, true);
    r.want_logits = true;
    good.push_back(std::move(r));
  }
  Request poison = serve::make_request(cfg, cfg.seq_length, 9, true);
  poison.features[3] = std::numeric_limits<float>::quiet_NaN();

  std::vector<std::future<Response>> futures;
  for (const Request& r : good) futures.push_back(engine.submit(r));
  auto f_poison = engine.submit(std::move(poison));

  const Response bad = f_poison.get();
  EXPECT_EQ(bad.status, Status::kInternalError);
  EXPECT_FALSE(bad.error.empty());
  std::vector<Response> served;
  for (auto& f : futures) {
    served.push_back(f.get());
    ASSERT_EQ(served.back().status, Status::kOk);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.internal_errors, 1U);
  // 4-row group fails, splits [2|2]; the poisoned pair splits again [1|1].
  EXPECT_EQ(stats.bisections, 2U);
  EXPECT_EQ(stats.retries, 3U);  // 1 retry per failing group
  EXPECT_EQ(engine.degrade_level(), 0);

  // Bit-parity: the survivors' results match a solo re-run exactly.
  for (std::size_t i = 0; i < good.size(); ++i) {
    const Response solo = engine.infer(good[i]);
    ASSERT_EQ(solo.status, Status::kOk);
    EXPECT_EQ(served[i].predictions, solo.predictions);
    EXPECT_EQ(served[i].logits, solo.logits);  // float-exact
    EXPECT_EQ(served[i].loss, solo.loss);
  }
}

TEST(ServeBreaker, DegradesAfterFailuresAndProbesBackUp) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_batch_retries = 0;
  options.breaker_threshold = 2;
  options.breaker_recovery = 1;
  InferenceEngine engine(cfg, options);

  const auto poisoned_request = [&](std::uint64_t seed) {
    Request r = serve::make_request(cfg, cfg.seq_length, seed, true);
    r.features[0] = std::numeric_limits<float>::quiet_NaN();
    return r;
  };
  // Two consecutive failed singleton batches trip the breaker one rung
  // down the ladder (this fp32 engine's ladder always ends in batch-1, so
  // it has at least two rungs on every architecture).
  EXPECT_EQ(engine.infer(poisoned_request(1)).status, Status::kInternalError);
  EXPECT_EQ(engine.infer(poisoned_request(2)).status, Status::kInternalError);
  EXPECT_EQ(engine.degrade_level(), 1);
  EXPECT_EQ(engine.health(), serve::Health::kDegraded);
  EXPECT_EQ(engine.stats().degraded_steps, 1U);

  // One clean batch at the degraded level completes the half-open probe
  // and restores full service.
  EXPECT_EQ(engine.infer(serve::make_request(cfg, cfg.seq_length, 3, true))
                .status,
            Status::kOk);
  EXPECT_EQ(engine.degrade_level(), 0);
  EXPECT_EQ(engine.health(), serve::Health::kHealthy);
  EXPECT_EQ(engine.stats().recovered_steps, 1U);
}

// Engine watchdog: a pinned injected stall (fires every session) blocks the
// batch indefinitely with the RUNTIME watchdog off — the engine watchdog
// must detect the stuck dispatcher, release the stall, and let the request
// complete normally instead of hanging.
TEST(ServeWatchdog, ReleasesInjectedStallAndCompletes) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/2);
  options.executor.faults = taskrt::FaultSpec::parse("stall_tasks=5");
  options.watchdog_ms = 100;
  InferenceEngine engine(cfg, options);

  const Response r =
      engine.infer(serve::make_request(cfg, cfg.seq_length, 1, true));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_GE(engine.stats().watchdog_fires, 1U);
  EXPECT_EQ(engine.stats().internal_errors, 0U);
}

// Queue-depth gauges: while requests of each class sit in the queue
// (underfull batch, long flush deadline) the per-class gauges and the
// stats() per-class depths must agree with what was enqueued.
TEST(ServeObservability, PerClassQueueDepthGaugesPublished) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/8);
  options.max_delay_us = 500'000;  // hold underfull batches half a second
  InferenceEngine engine(cfg, options);

  std::vector<std::future<Response>> futures;
  const auto submit_with = [&](serve::Priority priority, int n) {
    for (int i = 0; i < n; ++i) {
      Request r = serve::make_request(cfg, cfg.seq_length,
                                      static_cast<std::uint64_t>(i + 1),
                                      /*with_labels=*/false);
      r.priority = priority;
      futures.push_back(engine.submit(std::move(r)));
    }
  };
  submit_with(serve::Priority::kHigh, 1);
  submit_with(serve::Priority::kNormal, 2);
  submit_with(serve::Priority::kBatch, 3);

  // All six are queued (6 < max_batch) until the flush deadline; the
  // dispatcher may seal them at any time after that, so read immediately.
  const auto stats = engine.stats();
  const auto snap = obs::Registry::instance().snapshot(false);
  if (stats.queue_depth == 6) {  // not yet sealed: depths must match
    EXPECT_EQ(stats.queue_depths[0], 1U);
    EXPECT_EQ(stats.queue_depths[1], 2U);
    EXPECT_EQ(stats.queue_depths[2], 3U);
    EXPECT_EQ(snap.gauges.at("serve.queue_depth"), 6.0);
    EXPECT_EQ(snap.gauges.at("serve.queue_depth.high"), 1.0);
    EXPECT_EQ(snap.gauges.at("serve.queue_depth.normal"), 2.0);
    EXPECT_EQ(snap.gauges.at("serve.queue_depth.batch"), 3.0);
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  engine.shutdown();
  // Everything drained: the gauges must have been republished to zero.
  const auto drained = obs::Registry::instance().snapshot(false);
  EXPECT_EQ(drained.gauges.at("serve.queue_depth"), 0.0);
  EXPECT_EQ(drained.gauges.at("serve.queue_depth.high"), 0.0);
  EXPECT_EQ(drained.gauges.at("serve.queue_depth.normal"), 0.0);
  EXPECT_EQ(drained.gauges.at("serve.queue_depth.batch"), 0.0);
}

// Request-scoped tracing through the ugliest path the engine has: a
// poisoned batch that retries, bisects twice, and answers one request
// kInternalError. Ids must be unique, every id must respond exactly once,
// and each id's event timestamps must be monotone.
TEST(ServeObservability, RequestIdsUniqueAndTracedThroughRetryBisect) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50'000;  // let all four coalesce
  options.max_batch_retries = 1;
  options.breaker_threshold = 0;
  InferenceEngine engine(cfg, options);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    futures.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  Request poison = serve::make_request(cfg, cfg.seq_length, 9, true);
  poison.features[3] = std::numeric_limits<float>::quiet_NaN();
  futures.push_back(engine.submit(std::move(poison)));
  for (auto& f : futures) (void)f.get();

  std::map<std::uint64_t, std::vector<serve::RequestEvent>> by_id;
  for (const serve::RequestEvent& ev : engine.request_events()) {
    by_id[ev.id].push_back(ev);
  }
  EXPECT_EQ(engine.request_events_dropped(), 0U);
  ASSERT_EQ(by_id.size(), 4U);  // one unique id per submitted request

  int internal_errors = 0;
  int ok = 0;
  for (const auto& [id, events] : by_id) {
    int submitted = 0;
    int responded = 0;
    int retries = 0;
    int bisects = 0;
    std::int32_t final_status = -1;
    std::uint64_t prev_ts = 0;
    for (const serve::RequestEvent& ev : events) {
      EXPECT_GE(ev.ts_ns, prev_ts) << "id " << id << " went backwards";
      prev_ts = ev.ts_ns;
      switch (ev.stage) {
        case serve::RequestStage::kSubmitted: ++submitted; break;
        case serve::RequestStage::kResponded:
          ++responded;
          final_status = ev.arg;
          break;
        case serve::RequestStage::kRetry: ++retries; break;
        case serve::RequestStage::kBisect: ++bisects; break;
        default: break;
      }
    }
    EXPECT_EQ(submitted, 1) << "id " << id;
    EXPECT_EQ(responded, 1) << "id " << id;
    // Every member of the poisoned 4-row batch saw the retry and at least
    // the first bisection before the fault was isolated.
    EXPECT_GE(retries, 1) << "id " << id;
    EXPECT_GE(bisects, 1) << "id " << id;
    if (final_status == static_cast<std::int32_t>(Status::kInternalError)) {
      ++internal_errors;
    } else if (final_status == static_cast<std::int32_t>(Status::kOk)) {
      ++ok;
    }
  }
  EXPECT_EQ(internal_errors, 1);
  EXPECT_EQ(ok, 3);
}

// End-to-end stats endpoint on a live engine: /healthz, /statz (parse +
// schema spot-checks), and /metrics exposition.
TEST(ServeObservability, StatzJsonParsesWithSchema) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options();
  options.stats_port = 0;  // ephemeral listener (also enables the sampler)
  InferenceEngine engine(cfg, options);
  const int port = engine.stats_port();
  ASSERT_GT(port, 0);

  ASSERT_EQ(engine.infer(serve::make_request(cfg, cfg.seq_length, 1, true))
                .status,
            Status::kOk);

  const auto health = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const auto statz = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/statz");
  ASSERT_TRUE(statz.ok) << statz.error;
  ASSERT_EQ(statz.status, 200);
  const obs::JsonValue doc = obs::json_parse(statz.body);
  EXPECT_EQ(doc.at("type").str, "statz");
  EXPECT_EQ(doc.at("schema_version").number, 1.0);
  EXPECT_GE(doc.at("uptime_s").number, 0.0);
  EXPECT_EQ(doc.at("engine").at("completed").number, 1.0);
  EXPECT_EQ(doc.at("engine").at("queue_depth").at("total").number, 0.0);
  ASSERT_NE(doc.find("slo"), nullptr);
  EXPECT_GE(doc.at("slo").at("availability").number, 0.0);
  EXPECT_GT(doc.at("slo").at("latency_target_us").number, 0.0);
  ASSERT_NE(doc.find("sampler"), nullptr);
  EXPECT_GE(doc.at("sampler").at("ticks").number, 1.0);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_NE(doc.at("metrics").find("counters"), nullptr);

  const auto metrics = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE bpar_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("bpar_serve_request_us_bucket"),
            std::string::npos);

  engine.shutdown();
  // The listener dies with the engine.
  const auto after = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/healthz");
  EXPECT_FALSE(after.ok && after.status == 200);
}

// ---- AdmissionQueue (no threads, synthetic time points) ----

using serve::AdmissionQueue;
using serve::Pending;

Pending queued(Priority priority, std::uint64_t id,
               serve::Clock::time_point enqueued, int steps = 6) {
  Pending p;
  p.request.steps = steps;
  p.request.features.assign(static_cast<std::size_t>(steps), 0.5F);
  p.request.priority = priority;
  p.enqueued = enqueued;
  p.id = id;
  return p;
}

std::vector<std::uint64_t> ids_of(const std::vector<Pending>& pendings) {
  std::vector<std::uint64_t> ids;
  for (const Pending& p : pendings) ids.push_back(p.id);
  return ids;
}

TEST(ServeAdmissionQueue, ShedsLowestClassOldestFirstUntilOneBatchFits) {
  EngineOptions options;
  options.max_batch = 3;
  options.shed_wait_us = 1000;
  AdmissionQueue queue(options);
  const serve::Clock::time_point t0 = serve::Clock::now();
  const auto at_us = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const auto admit = [&](Priority priority, std::uint64_t id, int t_us) {
    Pending p = queued(priority, id, at_us(t_us));
    return queue.admit(p);
  };
  ASSERT_TRUE(admit(Priority::kHigh, 1, 0));
  ASSERT_TRUE(admit(Priority::kNormal, 2, 100));
  ASSERT_TRUE(admit(Priority::kBatch, 3, 200));
  ASSERT_TRUE(admit(Priority::kBatch, 4, 300));
  ASSERT_TRUE(admit(Priority::kNormal, 5, 400));
  ASSERT_TRUE(admit(Priority::kNormal, 6, 500));
  ASSERT_TRUE(admit(Priority::kNormal, 7, 600));
  ASSERT_TRUE(admit(Priority::kBatch, 8, 5000));  // fresh
  ASSERT_EQ(queue.size(), 8U);

  // Nobody has waited past shed_wait_us yet: backlog alone sheds nothing.
  EXPECT_TRUE(queue.shed_overdue(at_us(900)).empty());
  // kBatch goes first (3, 4; 8 is not overdue), then kNormal oldest first
  // until three requests (one micro-batch) remain: 7 is overdue but kept,
  // and the overdue kHigh request is never a candidate.
  EXPECT_EQ(ids_of(queue.shed_overdue(at_us(2000))),
            (std::vector<std::uint64_t>{3, 4, 2, 5, 6}));
  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.depths(), (std::array<std::size_t, 3>{1, 1, 1}));
  EXPECT_TRUE(queue.shed_overdue(at_us(60'000'000)).empty());

  // A backlog of overdue kHigh requests alone is never shed.
  options.max_batch = 1;
  AdmissionQueue high_only(options);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Pending p = queued(Priority::kHigh, id, t0);
    ASSERT_TRUE(high_only.admit(p));
  }
  EXPECT_TRUE(high_only.shed_overdue(at_us(60'000'000)).empty());
  EXPECT_EQ(high_only.size(), 4U);
}

TEST(ServeAdmissionQueue, DepthsAndGaugesFollowAdmitShedSeal) {
  EngineOptions options;
  options.max_batch = 4;
  options.max_queue = 7;
  options.shed_wait_us = 1000;
  const std::uint64_t queued_bytes_before =
      obs::serve_queue_memory().current_bytes();
  AdmissionQueue queue(options);
  const serve::Clock::time_point t0 = serve::Clock::now();
  const auto expect_depths = [&](std::size_t high, std::size_t normal,
                                 std::size_t batch) {
    const auto snap = obs::Registry::instance().snapshot(false);
    EXPECT_EQ(queue.depths(),
              (std::array<std::size_t, 3>{high, normal, batch}));
    EXPECT_EQ(queue.size(), high + normal + batch);
    EXPECT_EQ(snap.gauges.at("serve.queue_depth"),
              static_cast<double>(high + normal + batch));
    EXPECT_EQ(snap.gauges.at("serve.queue_depth.high"),
              static_cast<double>(high));
    EXPECT_EQ(snap.gauges.at("serve.queue_depth.normal"),
              static_cast<double>(normal));
    EXPECT_EQ(snap.gauges.at("serve.queue_depth.batch"),
              static_cast<double>(batch));
  };

  std::uint64_t id = 0;
  const auto admit = [&](Priority priority, int steps) {
    Pending p = queued(priority, ++id, t0, steps);
    return queue.admit(p);
  };
  ASSERT_TRUE(admit(Priority::kBatch, 6));
  ASSERT_TRUE(admit(Priority::kBatch, 6));
  ASSERT_TRUE(admit(Priority::kNormal, 6));
  ASSERT_TRUE(admit(Priority::kBatch, 6));
  ASSERT_TRUE(admit(Priority::kHigh, 6));
  ASSERT_TRUE(admit(Priority::kNormal, 6));
  ASSERT_TRUE(admit(Priority::kBatch, 9));
  expect_depths(1, 2, 4);
  // max_queue is full: the request is refused and left with its caller.
  Pending refused = queued(Priority::kHigh, 99, t0);
  EXPECT_FALSE(queue.admit(refused));
  EXPECT_EQ(refused.request.features.size(), 6U);
  expect_depths(1, 2, 4);

  // 7 > max_batch: the three oldest kBatch requests go, then it fits.
  EXPECT_EQ(ids_of(queue.shed_overdue(t0 + std::chrono::milliseconds(2))),
            (std::vector<std::uint64_t>{1, 2, 4}));
  expect_depths(1, 2, 1);

  // Seal takes the head's length only, in priority order; the length-9
  // request stays queued.
  ASSERT_NE(queue.head(), nullptr);
  EXPECT_EQ(queue.head()->id, 5U);
  EXPECT_EQ(queue.count_steps(6), 3U);
  EXPECT_EQ(ids_of(queue.seal(6, 4)), (std::vector<std::uint64_t>{5, 3, 6}));
  expect_depths(0, 0, 1);
  EXPECT_EQ(ids_of(queue.seal(9, 4)), (std::vector<std::uint64_t>{7}));
  expect_depths(0, 0, 0);
  EXPECT_EQ(queue.head(), nullptr);
  EXPECT_EQ(obs::serve_queue_memory().current_bytes(), queued_bytes_before);
}

// ---- BatchRunner (driven directly, through a recording Sink) ----

struct RecordingSink : serve::BatchRunner::Sink {
  std::map<std::uint64_t, Response> answers;
  std::array<std::uint64_t, serve::kNumCounters> counts{};
  std::vector<serve::Health> health;
  std::vector<std::string> dumps;

  void answer(Pending& pending, Response response) override {
    EXPECT_TRUE(answers.emplace(pending.id, std::move(response)).second)
        << "request " << pending.id << " answered twice";
  }
  void event(std::uint64_t, serve::RequestStage, std::int32_t) override {}
  void count(serve::Counter counter, std::uint64_t n) override {
    counts[static_cast<std::size_t>(counter)] += n;
  }
  void set_health(serve::Health h) override { health.push_back(h); }
  void dump(std::string_view reason) override { dumps.emplace_back(reason); }
  void progress() override {}
};

TEST(ServeBatchRunner, BisectsAndTripsBreakerThroughItsSink) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_batch_retries = 0;
  options.breaker_threshold = 2;
  rnn::Network net(cfg);
  RecordingSink sink;
  serve::BatchRunner runner(net, options, sink);

  std::vector<Pending> group;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Pending p;
    p.request = serve::make_request(cfg, cfg.seq_length, id, true);
    if (id == 3) {
      p.request.features[0] = std::numeric_limits<float>::quiet_NaN();
    }
    p.id = id;
    p.enqueued = serve::Clock::now();
    group.push_back(std::move(p));
  }
  runner.run(std::move(group), serve::Clock::now());

  // [1 2 3 4] fails, [1 2] succeeds, [3 4] and [3] fail — two failures in
  // a row trip the breaker — and [4] succeeds at the degraded level.
  ASSERT_EQ(sink.answers.size(), 4U);
  for (const auto& [id, response] : sink.answers) {
    EXPECT_EQ(response.status,
              id == 3 ? Status::kInternalError : Status::kOk)
        << "request " << id;
  }
  const auto count = [&](serve::Counter c) {
    return sink.counts[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(count(serve::Counter::kBatches), 5U);
  EXPECT_EQ(count(serve::Counter::kBisections), 2U);
  EXPECT_EQ(count(serve::Counter::kRetries), 0U);
  EXPECT_EQ(count(serve::Counter::kDegraded), 1U);
  EXPECT_EQ(runner.degrade_level(), 1);
  EXPECT_EQ(sink.dumps, std::vector<std::string>{"breaker-trip"});
  ASSERT_FALSE(sink.health.empty());
  EXPECT_EQ(sink.health.back(), serve::Health::kDegraded);
  runner.restore_backend();  // the first rung may switch kernels to scalar
}

}  // namespace
}  // namespace bpar
