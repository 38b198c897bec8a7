#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "exec/sequential.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "obs/memory.hpp"
#include "rnn/flops.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulator.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

namespace bt = bpar::taskrt;

namespace {

std::size_t class_of(bt::TaskKind kind) {
  switch (kind) {
    case bt::TaskKind::kCellForward:
    case bt::TaskKind::kCellForwardFused:
      return 0;
    case bt::TaskKind::kCellBackward:
      return 1;
    case bt::TaskKind::kInputPrecompute:
      return 2;
    case bt::TaskKind::kMerge:
    case bt::TaskKind::kMergeBackward:
      return 3;
    case bt::TaskKind::kLoss:
      return 4;
    case bt::TaskKind::kGradReduce:
      return 5;
    default:
      return 6;
  }
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Median per-call time (ms) of `fn` over `blocks` blocks of `reps` calls.
template <class Fn>
double per_call_ms(int blocks, int reps, Fn&& fn) {
  fn();  // warm caches and thread-local scratch
  std::vector<double> ms;
  for (int b = 0; b < blocks; ++b) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    ms.push_back(ms_since(t0) / reps);
  }
  return median(ms);
}

/// Median wall time (ms) of an executor call: one warm-up call, then at
/// least 3 timed calls and about `budget_s` seconds, at most 10 calls.
template <class Fn>
double exec_call_ms(double budget_s, Fn&& fn) {
  fn();
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < 3 || (ms.size() < 10 && seconds_since(start) < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

}  // namespace

void TaskLayerStats::add(const bt::TaskGraph& graph,
                         const bt::RunStats& stats) {
  const std::size_t n = std::min(graph.size(), stats.task_duration_ns.size());
  for (std::size_t id = 0; id < n; ++id) {
    const bt::TaskSpec& spec = graph.task(static_cast<bt::TaskId>(id)).spec;
    ClassTotals& c = classes_[class_of(spec.kind)];
    ++c.tasks;
    c.busy_ns += stats.task_duration_ns[id];
    c.flops += spec.flops;
  }
  const double wall = stats.wall_ms();
  const double busy = static_cast<double>(stats.total_busy_ns()) / 1e6;
  const double crit =
      static_cast<double>(graph.critical_path_cost(stats.task_duration_ns)) /
      1e6;
  wall_ms_.push_back(wall);
  util_.push_back(wall > 0.0 ? busy / (workers_ * wall) : 0.0);
  crit_ms_.push_back(crit);
  gap_ms_.push_back(wall - crit);
  idle_ms_.push_back(workers_ * wall - busy);
  steals_ += stats.steals;
  parks_ += stats.parks;
  hits_ += stats.locality_hits;
  with_affinity_ += stats.tasks_with_affinity;
}

void TaskLayerStats::report(Report& report, double peak_gflops) const {
  const double n = std::max<double>(1.0, static_cast<double>(steps()));
  for (std::size_t i = 0; i < kTaskClasses.size(); ++i) {
    const ClassTotals& c = classes_[i];
    const std::string name = std::string("rnn.") + kTaskClasses[i];
    // flops per ns of busy time = GFLOP/s of one core.
    const double gflops =
        c.busy_ns > 0 ? c.flops / static_cast<double>(c.busy_ns) : 0.0;
    report.add(name + ".tasks", static_cast<double>(c.tasks) / n, "count");
    report.add(name + ".busy_ms", static_cast<double>(c.busy_ns) / 1e6 / n,
               "ms");
    report.add(name + ".gflops", gflops, "GFLOP/s");
    report.add(name + ".roof_frac",
               peak_gflops > 0.0 ? gflops / peak_gflops : 0.0, "frac");
  }
  report.add("taskrt.util", median(util_), "frac");
  report.add("taskrt.crit_path_ms", median(crit_ms_), "ms");
  report.add("taskrt.sched_gap_ms", median(gap_ms_), "ms");
  report.add("taskrt.idle_ms", median(idle_ms_), "ms");
  report.add("taskrt.steals", static_cast<double>(steals_) / n, "count");
  report.add("taskrt.parks", static_cast<double>(parks_) / n, "count");
  report.add("taskrt.locality_hit_frac",
             with_affinity_ > 0 ? static_cast<double>(hits_) /
                                      static_cast<double>(with_affinity_)
                                : 0.0,
             "frac");
}

double report_kernels(Report& report, int m, int n, int k) {
  using bpar::tensor::Matrix;
  bpar::util::Rng rng(0xbeef);
  const auto filled = [&rng](int rows, int cols) {
    Matrix mat(rows, cols);
    bpar::tensor::fill_uniform(mat.view(), rng, -1.0F, 1.0F);
    return mat;
  };

  constexpr int kPeak = 512;
  const Matrix pa = filled(kPeak, kPeak);
  const Matrix pb = filled(kPeak, kPeak);
  Matrix pc(kPeak, kPeak);
  const double peak_ms = per_call_ms(
      9, 2, [&] { bpar::kernels::gemm_nt(pa.view(), pb.view(), pc.view()); });
  const double peak =
      bpar::kernels::gemm_flops(kPeak, kPeak, kPeak) / (peak_ms * 1e6);

  const Matrix a = filled(m, k);
  const Matrix b = filled(n, k);
  Matrix c(m, n);
  const double flops = bpar::kernels::gemm_flops(m, n, k);
  const double cell_ms = per_call_ms(
      9, 200, [&] { bpar::kernels::gemm_nt(a.view(), b.view(), c.view()); });
  bpar::kernels::QuantizedMatrix qb;
  qb.quantize_from(b.view());
  const double q_ms = per_call_ms(
      9, 200, [&] { bpar::kernels::qgemm_nt(a.view(), qb.view(), c.view()); });

  report.add("kernels.gemm_peak.gflops", peak, "GFLOP/s");
  report.add("kernels.gemm_cell.gflops", flops / (cell_ms * 1e6), "GFLOP/s");
  // Computed, not measured: every operand read once and C written once.
  report.add("kernels.gemm_cell.bytes",
             4.0 * (static_cast<double>(m) * k + static_cast<double>(n) * k +
                    static_cast<double>(m) * n),
             "B");
  report.add("kernels.qgemm_cell.gflops", flops / (q_ms * 1e6), "GFLOP/s");
  return peak;
}

void report_hop(Report& report, int workers) {
  constexpr int kChain = 2000;
  bt::Runtime runtime(bt::RuntimeOptions{
      .num_workers = workers,
      .policy = bt::SchedulerPolicy::kLocalityAware,
      .read_fault_env = false});
  bt::TaskGraph graph;
  int token = 0;
  for (int i = 0; i < kChain; ++i) {
    graph.add([] {}, {bt::inout(&token)});
  }
  graph.seal();
  (void)runtime.run(graph);
  std::vector<double> us;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    (void)runtime.run(graph);
    us.push_back(ms_since(t0) * 1e3 / kChain);
  }
  report.add("taskrt.hop_us", median(us), "us");
}

void report_exec(Report& report, const ExecShape& shape, double loop_step_ms,
                 double overhead_ms, std::uint64_t seed) {
  using bpar::exec::BParExecutor;
  bpar::rnn::Network net(shape.cfg);
  bpar::util::Rng rng(seed ^ 0x5ca1eULL);
  const bpar::rnn::BatchData batch = random_batch(
      shape.cfg, shape.cfg.batch_size, shape.cfg.seq_length, rng);
  const auto call = [&](bpar::exec::Executor& ex) {
    if (shape.training) {
      (void)ex.train_batch(batch);
    } else {
      (void)ex.infer(batch);
    }
  };

  bpar::exec::SequentialExecutor seq(net);
  const double seq_ms = exec_call_ms(1.0, [&] { call(seq); });
  const auto bpar_ms = [&](int workers) {
    BParExecutor ex(net,
                    bpar_options(workers, shape.replicas, shape.quantized));
    return exec_call_ms(1.0, [&] { call(ex); });
  };
  const double w1 = bpar_ms(1);
  const double w2 = bpar_ms(std::min(2, shape.workers));
  const double wn = bpar_ms(shape.workers);
  const double flops = shape.training
                           ? bpar::rnn::network_training_flops(shape.cfg)
                           : bpar::rnn::network_inference_flops(shape.cfg);

  report.add("exec.overhead_ms", overhead_ms, "ms");
  report.add("exec.gflops", flops / (loop_step_ms * 1e6), "GFLOP/s");
  report.add("exec.seq_ref_ms", seq_ms, "ms");
  report.add("exec.step_ms_w1", w1, "ms");
  report.add("exec.step_ms_w2", w2, "ms");
  report.add("exec.step_ms_wmax", wn, "ms");
  report.add("exec.speedup_vs_seq", seq_ms / wn, "x");
  report.add("exec.scale_eff", w1 / (shape.workers * wn), "frac");
}

void report_sim(Report& report, const bt::TaskGraph& graph, int workers,
                double measured_ms) {
  const bpar::sim::Calibration cal = bpar::sim::calibrate();
  const auto costs = bpar::sim::modeled_costs(graph, cal);
  bpar::sim::SimOptions options;
  options.policy = bt::SchedulerPolicy::kLocalityAware;
  options.cores = workers;
  const bpar::sim::Simulator simulator(options);
  const bpar::sim::SimResult r = simulator.run(graph, costs);
  report.add("sim.pred_err",
             measured_ms > 0.0
                 ? std::abs(r.makespan_ms - measured_ms) / measured_ms
                 : 0.0,
             "frac");
}

void report_graph(Report& report, double build_ms, std::size_t tasks,
                  std::size_t gemm_launches, std::size_t programs) {
  report.add("graph.build_ms", build_ms, "ms");
  report.add("graph.tasks", static_cast<double>(tasks), "count");
  report.add("graph.gemm_launches", static_cast<double>(gemm_launches),
             "count");
  report.add("graph.programs", static_cast<double>(programs), "count");
}

void report_trace_overhead(Report& report, const LoopTimes& times) {
  const double plain = median(times.plain_ms);
  report.add("obs.trace_overhead_frac",
             plain > 0.0 ? median(times.traced_ms) / plain - 1.0 : 0.0,
             "frac");
}

void report_memory(Report& report) {
  report.add("mem.tensor_peak_mb",
             static_cast<double>(bpar::obs::tensor_memory().peak_bytes()) /
                 kMiB,
             "MB");
  report.add(
      "mem.program_cache_mb",
      static_cast<double>(bpar::obs::program_cache_memory().current_bytes()) /
          kMiB,
      "MB");
}

}  // namespace perfbench
