// The serving vocabulary shared by the engine's three parts (DESIGN.md §5f,
// §5h): the options, requests and responses, the request-stage trace
// events, and the counters. AdmissionQueue (admission.hpp) holds queued
// requests, BatchRunner (runner.hpp) executes them, and InferenceEngine
// (engine.hpp) admits, dispatches and answers them.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <string_view>
#include <vector>

#include "exec/common_options.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "util/error.hpp"

namespace bpar::serve {

using Clock = std::chrono::steady_clock;

/// Request priority classes for admission control. Lower value = served
/// first. kHigh is never shed; kBatch is shed first under overload.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr int kNumPriorities = 3;

inline const char* priority_name(Priority priority) {
  constexpr std::array<const char*, kNumPriorities> kNames = {"high", "normal",
                                                              "batch"};
  return kNames[static_cast<std::size_t>(priority)];
}

/// Parses "high" / "normal" / "batch" (throws util::Error otherwise).
inline Priority parse_priority(std::string_view name) {
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    if (name == priority_name(static_cast<Priority>(cls))) {
      return static_cast<Priority>(cls);
    }
  }
  throw util::Error("unknown priority '" + std::string(name) +
                    "' (expected high|normal|batch)");
}

struct EngineOptions {
  /// Workers / replicas / policy of the executors, including `faults` and
  /// `watchdog_ms`, which flow into their runtimes unchanged (DESIGN.md §5c).
  exec::CommonOptions executor{};
  /// Largest micro-batch the dispatcher coalesces (and the top row bucket).
  int max_batch = 8;
  /// Flush deadline: a formed batch executes as soon as it reaches
  /// max_batch OR the oldest queued request has waited this long.
  std::uint32_t max_delay_us = 500;
  /// Bounded queue (all classes together); submissions beyond it reject
  /// with kRejected.
  std::size_t max_queue = 256;
  /// false → every request executes alone (batch-1 latency mode).
  bool enable_batching = true;
  /// Record per-task timing in the executor so write_unified_trace() can
  /// export an analyzable trace (`bpar_prof analyze`) of the last batch.
  bool record_trace = false;
  /// int8 inference (DESIGN.md §5g): serve with quantized weights.
  /// load_weights() re-quantizes automatically.
  bool quantized = false;

  // ---- resilience (DESIGN.md §5h) ----
  /// Per-class queue quotas, indexed by Priority: how many of the
  /// max_queue slots each class may occupy. 0 → no class-specific cap
  /// (the shared max_queue still applies).
  std::array<std::size_t, kNumPriorities> class_quota{};
  /// Queue-delay load shedding: when the backlog exceeds one micro-batch
  /// (max_batch) AND a kNormal/kBatch request has waited longer than this,
  /// it is answered kShed instead of executing, lowest class first. kHigh
  /// is never shed. 0 → 16 * max_delay_us.
  std::uint32_t shed_wait_us = 0;
  /// Whole-batch retries after a fault (injected throw, watchdog error,
  /// non-finite outputs) before bisection isolates the poisoned request.
  int max_batch_retries = 2;
  /// Circuit breaker: consecutive failed batches (retries exhausted) that
  /// trip one step down the degradation ladder. 0 disables the breaker.
  int breaker_threshold = 3;
  /// Consecutive successful batches at a degraded level before the
  /// breaker probes one step back up (half-open recovery).
  int breaker_recovery = 16;
  /// Engine watchdog: if the dispatcher makes no progress for this long
  /// while work is pending, injected stalls are released and the fire is
  /// counted/logged (the backstop when the runtime watchdog is off).
  /// 0 → disabled.
  std::uint32_t watchdog_ms = 0;

  // ---- live observability (DESIGN.md §5i) ----
  /// TCP port for the embedded stats endpoint (/metrics Prometheus text,
  /// /statz JSON, /healthz). -1 = no listener; 0 = ephemeral port (read it
  /// back with stats_port()). The listener also runs the metrics sampler
  /// whose windowed rollups /statz reports.
  int stats_port = -1;
  /// Sampler tick period.
  std::uint32_t sampler_period_ms = 1000;
  /// Per-request stage tracing: every request logs admission → queue →
  /// seal → form → execute → respond markers into a bounded ring that
  /// write_unified_trace() merges onto the timeline ("requests" row) and
  /// `bpar_prof request <id>` reconstructs.
  bool trace_requests = true;
  /// Availability / latency objectives for the built-in SLO tracker.
  obs::SloOptions slo{};

  // ---- flight recorder + profiler (DESIGN.md §5j) ----
  /// Directory for flight-recorder dump bundles. Non-empty arms the
  /// recorder: the circuit breaker, the engine watchdog, runtime watchdog
  /// errors, and SLO both-window alerting each snapshot the last N seconds
  /// of spans / task rows / request events / metrics into a rotated,
  /// size-bounded bundle here, and `GET /debug/dump` forces one manually.
  /// Fatal signals leave an async-signal-safe marker file in the same
  /// directory. Empty = no recorder.
  std::string dump_dir;
  /// Minimum spacing between automatic dumps (a flapping breaker writes
  /// one bundle, not hundreds).
  std::uint32_t dump_debounce_ms = 5000;
  /// Rotation bounds for the dump directory.
  std::size_t dump_max_bundles = 8;
  std::uint64_t dump_max_total_bytes = 64ULL << 20;
  /// Run the continuous span-stack profiler for the engine's lifetime, so
  /// `GET /profilez` serves windowed deltas and every dump bundle carries
  /// a folded profile. Off by default: sampling costs ~4 relaxed stores
  /// per span push/pop on every instrumented thread.
  bool enable_profiler = false;
  /// Profiler sampling period (see obs::ProfilerOptions).
  std::uint32_t profiler_period_us = 2000;
};

enum class Status {
  kOk,
  kRejected,          // bounded queue (or class quota) full at submit time
  kShed,              // load-shed from the queue under overload
  kDeadlineExceeded,  // request expired before execution
  kShutdown,          // submitted after shutdown() began
  kFailed,            // invalid request (validation error; see error)
  kInternalError,     // execution failed after retries + bisection
};
inline constexpr int kNumStatuses = 7;

inline const char* status_name(Status status) {
  constexpr std::array<const char*, kNumStatuses> kNames = {
      "ok",       "rejected", "shed",          "deadline_exceeded",
      "shutdown", "failed",   "internal_error"};
  return kNames[static_cast<std::size_t>(status)];
}

/// Engine health state machine (DESIGN.md §5h): healthy → degraded when
/// the circuit breaker has stepped down the ladder (or failures are
/// accumulating), back to healthy after a successful recovery probe;
/// draining once shutdown() begins.
enum class Health { kHealthy, kDegraded, kDraining };

inline const char* health_name(Health health) {
  constexpr std::array<const char*, 3> kNames = {"healthy", "degraded",
                                                 "draining"};
  return kNames[static_cast<std::size_t>(health)];
}

/// Lifecycle stages a request passes through, logged (when
/// EngineOptions::trace_requests) as timestamped markers keyed by the
/// request id. `arg` disambiguates within a stage: batch size at kSealed,
/// padded rows at kFormed, attempt number at kRetry, bisection depth at
/// kBisect, and the final Status at kResponded.
enum class RequestStage : std::uint8_t {
  kSubmitted,  // id assigned, request validated
  kQueued,     // earned a queue slot
  kSealed,     // taken into a micro-batch (arg = batch size)
  kFormed,     // batch buffers filled (arg = padded rows)
  kExecBegin,  // first execution attempt starts
  kExecEnd,    // execution attempts finished (ok or not)
  kRetry,      // whole-batch retry (arg = attempt number)
  kBisect,     // batch split to isolate a fault (arg = depth)
  kResponded,  // promise fulfilled (arg = Status)
};
inline constexpr int kNumRequestStages = 9;

inline const char* request_stage_name(RequestStage stage) {
  constexpr std::array<const char*, kNumRequestStages> kNames = {
      "submitted", "queued",   "sealed", "formed",   "exec_begin",
      "exec_end",  "retry",    "bisect", "responded"};
  return kNames[static_cast<std::size_t>(stage)];
}

/// One entry of the engine's bounded request-event ring.
struct RequestEvent {
  std::uint64_t id = 0;
  std::uint64_t ts_ns = 0;  // absolute steady-clock ns
  RequestStage stage = RequestStage::kSubmitted;
  std::int32_t arg = 0;
};

/// One sequence to classify. `features` is row-major by timestep:
/// features[t * input_size + f]. Labels are optional — empty means no loss
/// is computed; otherwise 1 entry (many-to-one) or `steps` entries
/// (many-to-many) and the response carries this request's exact loss.
struct Request {
  int steps = 0;
  std::vector<float> features;
  std::vector<int> labels;
  /// Optional absolute deadline; default (epoch) = none. Already-expired
  /// deadlines are answered kDeadlineExceeded at submit() without ever
  /// occupying a queue slot.
  Clock::time_point deadline{};
  bool want_logits = false;
  /// Admission class: kHigh is sealed first and never shed; kBatch is the
  /// first to be shed under overload.
  Priority priority = Priority::kNormal;
};

struct Response {
  Status status = Status::kOk;
  std::uint64_t id = 0;
  /// Mean cross-entropy of THIS request (padding-immune; 0 without labels).
  double loss = 0.0;
  std::vector<int> predictions;  // [outputs] argmax class ids
  std::vector<float> logits;     // [outputs * classes] when want_logits
  int batch_rows = 0;            // executed micro-batch rows (with padding)
  int real_rows = 0;             // of which were real requests
  double queue_us = 0.0;         // submit → micro-batch sealed
  double batch_form_us = 0.0;    // seal → batch buffers filled
  double exec_us = 0.0;          // task-graph execution (incl. retries)
  std::string error;             // kFailed / kInternalError diagnostic
};

/// A submitted request and the promise that answers it.
struct Pending {
  Request request;
  std::promise<Response> promise;
  Clock::time_point enqueued;  // submit() time
  std::uint64_t id = 0;
};

/// The engine's counters, each named after its `serve.*` registry counter
/// (serve.requests, serve.completed, ...). EngineStats and the /statz
/// "engine" block read them.
enum class Counter : std::uint8_t {
  kRequests,
  kCompleted,         // answered kOk
  kRejected,
  kShed,
  kDeadlineExceeded,
  kFailed,            // validation failures
  kInternalErrors,    // answered kInternalError
  kBatches,
  kPaddedRows,
  kRetries,           // whole-batch retry attempts
  kBisections,        // batch splits isolating a fault
  kDegraded,          // breaker trips down the ladder
  kRecovered,         // successful half-open probes up
  kWatchdogFires,     // engine-watchdog interventions
  kExecutorRebuilds,  // poisoned-runtime replacements
};
inline constexpr int kNumCounters = 15;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The serve.* latency histogram `name`, on shared microsecond edges.
inline obs::HistogramCell& latency_histogram(std::string_view name) {
  return obs::Registry::instance().histogram(
      name, {50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000,
             200000, 500000, 1000000});
}

}  // namespace bpar::serve
