// The serving engine's failure policy (DESIGN.md §5f, §5h): BatchRunner
// turns a sealed group of same-length requests into a padded micro-batch,
// replays the cached forward program, retries and then bisects failed
// groups, rebuilds a poisoned executor, and steps a circuit breaker down
// and up the degradation ladder (int8 → fp32, native kernels → scalar,
// batched → batch-1). Every answer, request event, counter, health change
// and dump goes to the Sink its owner implements. Dispatcher thread only,
// except where a method says otherwise.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "exec/bpar_executor.hpp"
#include "obs/trace_export.hpp"
#include "rnn/network.hpp"
#include "serve/types.hpp"

namespace bpar::serve {

class BatchRunner {
 public:
  /// Where the runner's outcomes go (the engine).
  class Sink {
   public:
    virtual ~Sink() = default;
    /// Fulfils `pending`'s promise; called exactly once per request.
    virtual void answer(Pending& pending, Response response) = 0;
    virtual void event(std::uint64_t id, RequestStage stage,
                       std::int32_t arg) = 0;
    virtual void count(Counter counter, std::uint64_t n) = 0;
    virtual void set_health(Health health) = 0;
    virtual void dump(std::string_view reason) = 0;
    /// The dispatcher is still making progress (engine watchdog).
    virtual void progress() = 0;
  };

  BatchRunner(rnn::Network& net, const EngineOptions& options, Sink& sink);

  /// Forms and executes `group` (same length, all live), retrying and then
  /// bisecting on failure. Answers every request exactly once.
  void run(std::vector<Pending> group, Clock::time_point sealed,
           int depth = 0);

  /// Micro-batch cap at the current degradation level.
  [[nodiscard]] int batch_cap() const;
  /// Current degradation-ladder level (0 = full service). Any thread.
  [[nodiscard]] int degrade_level() const {
    return degrade_level_.load(std::memory_order_relaxed);
  }
  /// The primary executor (int8 when EngineOptions::quantized).
  [[nodiscard]] exec::BParExecutor& executor() { return *executor_; }
  /// Wakes every injected stall in both executors. Any thread.
  void release_stalls();
  /// Switches the process-global kernel backend back to the one found at
  /// construction if the ladder changed it.
  void restore_backend();
  /// Writes the last traced micro-batch's task slices, every recorded span
  /// and `extra` as one unified trace. Returns false, writing nothing, when
  /// no batch has been traced. Any thread.
  bool write_trace(std::ostream& os, const obs::ExtraEventEmitter& extra);

  /// The row bucket a micro-batch of `rows` requests pads up to: the next
  /// power of two, clamped to `max_batch`.
  [[nodiscard]] static int bucket_rows(int rows, int max_batch);

 private:
  /// One rung of the degradation ladder: what is switched OFF at this
  /// level. Levels are cumulative (level 2 includes level 1's flags).
  struct DegradeStep {
    const char* name = "full";
    bool disable_quantized = false;
    bool scalar_backend = false;
    bool batch_one = false;
  };

  [[nodiscard]] std::unique_ptr<exec::BParExecutor> make_executor(
      bool quantized) const;
  /// The executor serving at the current level (the fp32 sidecar once the
  /// ladder has stepped off the int8 path).
  [[nodiscard]] exec::BParExecutor& active_executor();
  [[nodiscard]] const DegradeStep& step() const;
  /// One execution attempt; never throws. Empty string on success.
  std::string try_execute(const rnn::BatchData& batch, bool need_logits,
                          int steps, int rows, exec::InferResult& result);
  void mark(const std::vector<Pending>& group, RequestStage stage,
            std::int32_t arg);
  void note_success();
  void note_failure();
  void apply_degrade_level(int level);
  void rebuild_executor();

  rnn::Network& net_;
  const EngineOptions& options_;
  Sink& sink_;
  std::string native_backend_;  // kernel backend at construction
  std::vector<DegradeStep> ladder_;  // [0] = full service
  std::unique_ptr<exec::BParExecutor> executor_;
  /// fp32 fallback, built the first time the ladder steps off int8.
  std::unique_ptr<exec::BParExecutor> fp32_executor_;
  int consecutive_failures_ = 0;
  int consecutive_successes_ = 0;
  std::atomic<int> degrade_level_{0};

  mutable std::mutex trace_mu_;  // guards the two last-trace fields
  graph::TrainingProgram* last_traced_program_ = nullptr;
  taskrt::RunStats last_traced_stats_;
};

}  // namespace bpar::serve
