// Inference serving engine: concurrent clients, dynamic micro-batching,
// cached forward-only task graphs, and a resilience layer (DESIGN.md §5f +
// §5h). The engine owns a trained rnn::Network, an AdmissionQueue (queue
// policy) and a BatchRunner (failure policy), and keeps submit(), the
// dispatcher thread that seals micro-batches, the engine watchdog,
// shutdown() and the telemetry wiring. Every request is answered through
// one path, answer(), so each is answered exactly once.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/bpar_executor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace_export.hpp"
#include "rnn/network.hpp"
#include "serve/admission.hpp"
#include "serve/runner.hpp"
#include "serve/types.hpp"

namespace bpar::serve {

/// Counter snapshot + health; the `serve.*` metrics mirror these.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // answered kOk
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;           // validation failures
  std::uint64_t internal_errors = 0;  // answered kInternalError
  std::uint64_t batches = 0;
  std::uint64_t padded_rows = 0;
  std::uint64_t retries = 0;          // whole-batch retry attempts
  std::uint64_t bisections = 0;       // batch splits isolating a fault
  std::uint64_t degraded_steps = 0;   // breaker trips down the ladder
  std::uint64_t recovered_steps = 0;  // successful half-open probes up
  std::uint64_t watchdog_fires = 0;   // engine-watchdog interventions
  std::uint64_t executor_rebuilds = 0;  // poisoned-runtime replacements
  int degrade_level = 0;  // current ladder level (0 = full service)
  Health health = Health::kHealthy;
  std::size_t queue_depth = 0;  // all classes together
  /// Per-class backlog, indexed by Priority.
  std::array<std::size_t, kNumPriorities> queue_depths{};
  /// SLO tracker state (availability, latency attainment, budget burn).
  obs::SloTracker::Snapshot slo{};
};

class InferenceEngine : private BatchRunner::Sink {
 public:
  /// Builds the network from `config` (load trained weights through
  /// network() or load_weights() before serving) and starts the dispatcher.
  InferenceEngine(const rnn::NetworkConfig& config, EngineOptions options);
  ~InferenceEngine() override;  // shutdown(): drains, joins the dispatcher

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  [[nodiscard]] rnn::Network& network() { return net_; }
  [[nodiscard]] const rnn::NetworkConfig& config() const {
    return net_.config();
  }
  [[nodiscard]] exec::BParExecutor& executor() { return runner_.executor(); }

  /// Reads weights saved by Model::save / rnn::Network::save.
  void load_weights(const std::string& path);

  /// Pre-builds the forward program of every row bucket for each sequence
  /// length, so the first real requests don't pay graph construction.
  void warmup(std::span<const int> seq_lengths);

  /// Thread-safe. The future completes when the request is served (or
  /// immediately, with a non-kOk status, when it cannot be queued).
  [[nodiscard]] std::future<Response> submit(Request request);

  /// Blocking convenience: submit(request).get().
  [[nodiscard]] Response infer(Request request);

  /// Stops intake (new submits answer kShutdown), serves everything already
  /// queued, and joins the dispatcher. Idempotent.
  void shutdown();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] Health health() const;
  /// Current degradation-ladder level: 0 = full service; each step disables
  /// one acceleration (int8, SIMD backend, batching) in order.
  [[nodiscard]] int degrade_level() const { return runner_.degrade_level(); }

  /// Writes a unified chrome-trace (task slices of the LAST served
  /// micro-batch + every obs span recorded so far + per-request stage
  /// markers on a "requests" row) that `bpar_prof analyze` / `bpar_prof
  /// request <id>` consume. Requires EngineOptions::record_trace and at
  /// least one served batch; call when quiescent (after shutdown()).
  void write_unified_trace(const std::string& path);

  /// The bound stats-endpoint port (useful with EngineOptions::stats_port
  /// = 0), or -1 when no listener is running.
  [[nodiscard]] int stats_port() const;
  /// The /statz payload: EngineStats + per-class queue depths + SLO state
  /// + sampler windows + the full metrics registry, as one JSON object.
  /// Works with or without a listener (the sampler section is null
  /// without one).
  [[nodiscard]] std::string statz_json() const;
  /// Copy of the request-event ring (oldest first) and how many events the
  /// bounded ring has discarded.
  [[nodiscard]] std::vector<RequestEvent> request_events() const;
  [[nodiscard]] std::uint64_t request_events_dropped() const;

  /// Forces a flight-recorder dump (same path the automatic triggers use,
  /// including the debounce). Thread-safe. Returns written=false with a
  /// `skipped` reason when no recorder is armed or the trigger debounced.
  obs::DumpResult trigger_dump(std::string_view reason);
  /// The armed flight recorder, or nullptr when dump_dir is empty.
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }
  /// Collapsed-flamegraph text for roughly the next `seconds` of serving
  /// (what `GET /profilez?seconds=N` returns): a windowed delta of the
  /// continuous profiler when one is running, otherwise an ephemeral
  /// profiler spun up just for the window. Blocks for the window.
  [[nodiscard]] std::string profile_folded(double seconds);

 private:
  void dispatcher_loop();
  void watchdog_loop();
  /// Answers expired requests, runs the rest (dispatcher thread only).
  void serve_batch(std::vector<Pending> taken, Clock::time_point sealed);

  // ---- BatchRunner::Sink; all callable from any thread ----
  /// The one answer path: counts the outcome, feeds the SLO tracker, logs
  /// kResponded and fulfils the promise.
  void answer(Pending& pending, Response response) override;
  /// No-op unless EngineOptions::trace_requests.
  void event(std::uint64_t id, RequestStage stage, std::int32_t arg) override;
  void count(Counter counter, std::uint64_t n) override;
  /// Ignores everything but kDraining once shutdown() has begun.
  void set_health(Health health) override;
  void dump(std::string_view reason) override { (void)trigger_dump(reason); }
  void progress() override;

  /// Starts the profiler, flight recorder, sampler and stats listener
  /// that options_ asks for (ctor).
  void start_telemetry();
  /// The request-stage instant markers as a trace-export hook, shared by
  /// write_unified_trace() and flight dumps.
  [[nodiscard]] obs::ExtraEventEmitter request_marker_emitter() const;
  [[nodiscard]] std::string validate(const Request& request) const;

  rnn::Network net_;
  EngineOptions options_;
  Clock::time_point started_;
  std::array<std::atomic<std::uint64_t>, kNumCounters> counts_{};
  std::array<obs::Counter*, kNumCounters> metrics_{};  // serve.* registry
  obs::SloTracker slo_;
  BatchRunner runner_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  AdmissionQueue queue_;                // guarded by mu_
  std::atomic<bool> stopping_{false};  // written under mu_

  // ---- live observability (DESIGN.md §5i) ----
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::unique_ptr<obs::StatsServer> stats_server_;
  // ---- flight recorder + profiler (DESIGN.md §5j) ----
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::SpanProfiler> profiler_;
  bool slo_alerting_prev_ = false;  // dispatcher thread only
  /// Bounded drop-oldest request-event log. Its own mutex: recording
  /// happens on the submit path and inside the runner, where mu_ is not
  /// (or must not be) held.
  static constexpr std::size_t kMaxRequestEvents = 1U << 16;
  mutable std::mutex req_mu_;
  std::deque<RequestEvent> request_events_;
  std::uint64_t request_events_dropped_ = 0;
  std::atomic<int> health_{0};  // Health as int, for lock-free reads

  // ---- engine watchdog ----
  std::atomic<std::uint64_t> last_progress_ns_{0};
  std::atomic<bool> in_flight_{false};  // dispatcher inside serve_batch
  std::condition_variable watchdog_cv_;  // waits on mu_
  std::atomic<std::uint64_t> next_id_{1};

  // Threads last: they start after everything above is initialized.
  std::thread watchdog_;
  std::thread dispatcher_;
};

}  // namespace bpar::serve
