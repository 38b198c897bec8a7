// Per-layer measurements of the traced run (README.md, "Per-layer
// metrics"). Everything here is timed from outside the library: calls into
// each module's public functions, plus the RunStats the executors return.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "exec/bpar_executor.hpp"
#include "measure.hpp"
#include "obs/trace.hpp"
#include "rnn/network.hpp"
#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"

namespace perfbench {

/// Wall times of a closed loop. A traced loop alternates blocks of plain
/// calls and traced calls (obs span recording on, RunStats folded into the
/// per-layer view), so `traced_ms` against `plain_ms` is the tracing cost.
struct LoopTimes {
  std::vector<double> plain_ms;
  std::vector<double> plain_end_s;  // since the loop started
  std::vector<double> traced_ms;
  [[nodiscard]] std::size_t calls() const {
    return plain_ms.size() + traced_ms.size();
  }
};

/// Calls `call(i, traced)` back to back, each returning its wall time in
/// ms, for `seconds` and at least `min_calls` calls (but never past three
/// times `seconds`).
template <class Call>
LoopTimes closed_loop(double seconds, std::size_t min_calls, bool trace,
                      Call&& call) {
  constexpr std::size_t kBlock = 4;
  LoopTimes times;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if ((elapsed >= seconds && times.calls() >= min_calls) ||
        elapsed >= 3.0 * seconds) {
      break;
    }
    const bool traced = trace && (i / kBlock) % 2 == 1;
    bpar::obs::set_tracing_enabled(traced);
    const double ms = call(i, traced);
    bpar::obs::set_tracing_enabled(false);
    if (traced) {
      times.traced_ms.push_back(ms);
    } else {
      times.plain_ms.push_back(ms);
      times.plain_end_s.push_back(seconds_since(start));
    }
  }
  return times;
}

/// B-Par executor options: `workers` threads, mbs:`replicas`, int8
/// inference when `quantized`, everything else at its default.
[[nodiscard]] inline bpar::exec::BParOptions bpar_options(int workers,
                                                          int replicas,
                                                          bool quantized) {
  bpar::exec::BParOptions options;
  options.common.num_workers = workers;
  options.common.num_replicas = replicas;
  options.quantized_inference = quantized;
  return options;
}

/// Task classes of the per-layer view. The names are part of the metric
/// names, so they stay fixed when a graph pass is added or removed.
inline constexpr std::array<const char*, 7> kTaskClasses = {
    "cell_fwd", "cell_bwd", "input_gemm", "merge", "loss", "grad_reduce",
    "other"};

/// Folds executed graph runs into the rnn.<class>.* and taskrt.* metrics
/// (per step: one step is one executor call).
class TaskLayerStats {
 public:
  explicit TaskLayerStats(int workers) : workers_(workers) {}

  void add(const bpar::taskrt::TaskGraph& graph,
           const bpar::taskrt::RunStats& stats);
  [[nodiscard]] std::size_t steps() const { return wall_ms_.size(); }
  [[nodiscard]] double wall_ms_p50() const { return median(wall_ms_); }
  /// `peak_gflops` is the one-thread GEMM roof the classes are set against.
  void report(Report& report, double peak_gflops) const;

 private:
  struct ClassTotals {
    std::size_t tasks = 0;
    std::uint64_t busy_ns = 0;
    double flops = 0.0;
  };
  int workers_;
  std::array<ClassTotals, kTaskClasses.size()> classes_{};
  std::vector<double> wall_ms_, util_, crit_ms_, gap_ms_, idle_ms_;
  std::size_t steals_ = 0, parks_ = 0, hits_ = 0, with_affinity_ = 0;
};

/// kernels.*: one-thread gemm_nt roof at a large shape, plus fp32 and int8
/// GEMM at the workload's fused-gate cell shape (m rows, n = gates * H,
/// k = H). Returns the roof in GFLOP/s.
double report_kernels(Report& report, int m, int n, int k);

/// taskrt.hop_us: per-task cost of a chain of empty dependent tasks.
void report_hop(Report& report, int workers);

/// exec.*: single-threaded SequentialExecutor reference and B-Par at 1, 2
/// and `workers` workers on one batch of `rows` x `steps`, plus the
/// executor overhead and achieved rate measured in the main loop.
struct ExecShape {
  bpar::rnn::NetworkConfig cfg;  // batch_size / seq_length = the shape
  bool training = true;
  bool quantized = false;
  int replicas = 1;
  int workers = 1;
};
void report_exec(Report& report, const ExecShape& shape,
                 double loop_step_ms, double overhead_ms, std::uint64_t seed);

/// sim.pred_err: simulated makespan (host calibration, modeled costs) of
/// `graph` at `workers` cores: its absolute error relative to the measured
/// wall time.
void report_sim(Report& report, const bpar::taskrt::TaskGraph& graph,
                int workers, double measured_ms);

/// graph.* for one program; `build_ms` was timed around its first build.
void report_graph(Report& report, double build_ms, std::size_t tasks,
                  std::size_t gemm_launches, std::size_t programs);

/// obs.trace_overhead_frac: traced against plain call p50.
void report_trace_overhead(Report& report, const LoopTimes& times);

/// mem.tensor_peak_mb and mem.program_cache_mb from the obs trackers.
void report_memory(Report& report);

}  // namespace perfbench
