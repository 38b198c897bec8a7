// Closed-loop workloads: train_blstm (Model::train_batch) and
// infer_bgru_int8 (BParExecutor::infer with int8 weights).
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/bpar.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bpar::exec::BParExecutor;
using bpar::rnn::BatchData;
using bpar::rnn::NetworkConfig;

// p90 needs at least ten samples above it.
constexpr std::size_t kMinCalls = 100;
constexpr std::size_t kMinTracedCalls = 40;
constexpr std::size_t kPool = 4;  // distinct batches, cycled
constexpr int kReplicas = 4;      // mbs:4

NetworkConfig paper_shape(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.input_size = 64;
  cfg.hidden_size = 128;
  cfg.num_layers = 4;
  cfg.seq_length = 50;
  cfg.batch_size = 32;
  cfg.seed = seed;
  return cfg;
}

std::vector<BatchData> make_pool(const NetworkConfig& cfg,
                                 std::uint64_t seed) {
  bpar::util::Rng rng(seed ^ 0xda7aULL);
  std::vector<BatchData> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    pool.push_back(random_batch(cfg, cfg.batch_size, cfg.seq_length, rng));
  }
  return pool;
}

/// Step time and throughput are taken per slice of the timed window and
/// their median over the slices is reported (see sliced_quantile). p90 is
/// printed but not part of the result: the host's load moves it by more
/// than any bound between runs (README.md, "Noise").
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const LoopTimes& times, int batch, double rss_mb) {
  std::vector<double> per_s;
  const std::size_t n = times.plain_end_s.size();
  for (std::size_t s = 0; s < kSlices; ++s) {
    const std::size_t first = n * s / kSlices;
    const std::size_t last = n * (s + 1) / kSlices;
    if (first == last) continue;
    const double begin_s = first == 0 ? 0.0 : times.plain_end_s[first - 1];
    per_s.push_back(static_cast<double>(last - first) * batch /
                    (times.plain_end_s[last - 1] - begin_s));
  }
  std::printf("p90_ms (not gated) %.6g ms\n",
              sliced_quantile(times.plain_ms, 0.9));
  report.add("setup_s", median(setup_s), "s");
  report.add("p50_ms", sliced_quantile(times.plain_ms, 0.5), "ms");
  report.add("throughput_per_s", median(per_s), "1/s");
  report.add("peak_rss_mb", rss_mb, "MB");
}

struct TrainSut {
  std::unique_ptr<bpar::Model> model;
  BParExecutor* exec = nullptr;
  double build_ms = 0.0;
};

TrainSut setup_train(const NetworkConfig& cfg, int workers,
                     const BatchData& warm) {
  TrainSut sut;
  sut.model = std::make_unique<bpar::Model>(cfg);
  sut.model->select_executor(
      bpar::ExecutorKind::kBPar,
      {.num_workers = workers, .num_replicas = kReplicas});
  sut.model->set_optimizer(
      std::make_unique<bpar::train::Adam>(bpar::train::Adam::Config{}));
  sut.exec = &dynamic_cast<BParExecutor&>(sut.model->executor());
  const auto t0 = Clock::now();
  (void)sut.exec->train_program();
  sut.build_ms = ms_since(t0);
  (void)sut.model->train_batch(warm);
  return sut;
}

struct InferSut {
  std::unique_ptr<bpar::rnn::Network> net;
  std::unique_ptr<BParExecutor> exec;  // destroyed before `net`
  double build_ms = 0.0;
};

InferSut setup_infer(const NetworkConfig& cfg, int workers,
                     const BatchData& warm) {
  InferSut sut;
  sut.net = std::make_unique<bpar::rnn::Network>(cfg);
  sut.exec = std::make_unique<BParExecutor>(
      *sut.net, bpar_options(workers, kReplicas, /*quantized=*/true));
  const auto t0 = Clock::now();
  (void)sut.exec->infer_program();
  sut.build_ms = ms_since(t0);
  (void)sut.exec->infer(warm, {.want_logits = true});
  return sut;
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_matrix(const bpar::tensor::Matrix& a, const bpar::tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

bool same_grads(const bpar::rnn::NetworkGrads& a,
                const bpar::rnn::NetworkGrads& b) {
  for (int dir = 0; dir < 2; ++dir) {
    const auto& la = a.layers[dir];
    const auto& lb = b.layers[dir];
    if (la.size() != lb.size()) return false;
    for (std::size_t l = 0; l < la.size(); ++l) {
      if (!same_matrix(la[l].dw, lb[l].dw) ||
          !same_matrix(la[l].db, lb[l].db)) {
        return false;
      }
    }
  }
  return same_matrix(a.dw_out, b.dw_out) && same_matrix(a.db_out, b.db_out);
}

}  // namespace

void run_train_blstm(const RunOptions& opts, Report& report) {
  const int workers = host_cores();
  NetworkConfig cfg = paper_shape(opts.seed);
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.num_classes = 11;
  const std::vector<BatchData> pool = make_pool(cfg, opts.seed);

  std::vector<double> setup_s;
  TrainSut sut = timed_setups(
      [&] { return setup_train(cfg, workers, pool[0]); }, setup_s);
  bpar::Model& model = *sut.model;
  BParExecutor& ex = *sut.exec;
  bpar::graph::TrainingProgram& program = ex.train_program();
  report.pass_signature = program.pass_signature();

  // Step 0 is checked against a reference step on the same weights.
  const bpar::rnn::Network weights0 = model.network();
  double loss0 = 0.0;
  bpar::rnn::NetworkGrads grads0;
  std::size_t nonfinite = 0;
  TaskLayerStats layers(workers);
  std::vector<double> exec_ms, optimizer_ms, overhead_ms;

  const LoopTimes times = closed_loop(
      opts.trace ? opts.seconds / 2 : opts.seconds,
      opts.trace ? kMinTracedCalls : kMinCalls, opts.trace,
      [&](std::size_t i, bool traced) {
        const BatchData& batch = pool[i % kPool];
        double ms = 0.0;
        double loss = 0.0;
        if (!traced) {
          const auto t0 = Clock::now();
          loss = model.train_batch(batch).loss;
          ms = ms_since(t0);
        } else {
          // Model::train_batch is exactly these two calls; timing them
          // apart splits the executor from the optimizer.
          const auto t0 = Clock::now();
          const bpar::exec::StepResult r = ex.train_batch(batch);
          const double e = ms_since(t0);
          const auto t1 = Clock::now();
          model.optimizer().step(model.network(), ex.grads());
          const double o = ms_since(t1);
          ms = e + o;
          loss = r.loss;
          exec_ms.push_back(e);
          optimizer_ms.push_back(o);
          overhead_ms.push_back(e - r.stats.wall_ms());
          layers.add(program.graph(), r.stats);
        }
        if (i == 0) {
          loss0 = loss;
          grads0 = ex.grads();
        }
        if (!std::isfinite(loss)) ++nonfinite;
        return ms;
      });
  const double rss = peak_rss_mb();
  if (opts.trace) report_memory(report);

  // B-Seq with the same mini-batch split runs the sequential pass per
  // mini-batch and reduces in the same order, so it must agree bitwise.
  bpar::rnn::Network ref_net = weights0;
  bpar::exec::BSeqExecutor ref(
      ref_net, {.common = {.num_workers = workers, .num_replicas = kReplicas}});
  const bpar::exec::StepResult r0 = ref.train_batch(pool[0]);
  const bool parity = r0.loss == loss0 && same_grads(ref.grads(), grads0);
  report.check("train_blstm: step 0 loss+grads == b-seq mbs:4 (bitwise)",
               parity);
  report.check("train_blstm: every loss finite", nonfinite == 0);
  report.count(times.calls(), nonfinite + (parity ? 0 : 1));

  if (!opts.trace) {
    report_end_to_end(report, setup_s, times, cfg.batch_size, rss);
    return;
  }
  const double peak = report_kernels(report, cfg.batch_size / kReplicas,
                                     4 * cfg.hidden_size, cfg.hidden_size);
  layers.report(report, peak);
  report_graph(report, sut.build_ms, program.graph().size(),
               program.gemm_launches(), ex.cached_programs(true));
  report_hop(report, workers);
  report_trace_overhead(report, times);
  report.add("tail.p90_ms", sliced_quantile(times.plain_ms, 0.9), "ms");
  report.add("train.optimizer_ms", median(optimizer_ms), "ms");
  report_sim(report, program.graph(), workers, layers.wall_ms_p50());
  report_exec(report,
              ExecShape{.cfg = cfg,
                        .training = true,
                        .replicas = kReplicas,
                        .workers = workers},
              median(exec_ms), median(overhead_ms), opts.seed);
}

void run_infer_bgru_int8(const RunOptions& opts, Report& report) {
  const int workers = host_cores();
  NetworkConfig cfg = paper_shape(opts.seed);
  cfg.cell = bpar::rnn::CellType::kGru;
  cfg.num_classes = 64;  // next-character prediction, one output per step
  cfg.many_to_many = true;
  const std::vector<BatchData> pool = make_pool(cfg, opts.seed);

  std::vector<double> setup_s;
  InferSut sut = timed_setups(
      [&] { return setup_infer(cfg, workers, pool[0]); }, setup_s);
  BParExecutor& ex = *sut.exec;
  bpar::graph::TrainingProgram& program = ex.infer_program();
  report.pass_signature = program.pass_signature();

  // Every call's logits are compared with the first call on the same batch
  // here, and the first calls with a reference after the timed window.
  std::array<std::vector<float>, kPool> first;
  std::array<std::size_t, kPool> calls{};
  std::array<std::size_t, kPool> same_as_first{};
  TaskLayerStats layers(workers);
  std::vector<double> overhead_ms;

  const LoopTimes times = closed_loop(
      opts.trace ? opts.seconds / 2 : opts.seconds,
      opts.trace ? kMinTracedCalls : kMinCalls, opts.trace,
      [&](std::size_t i, bool traced) {
        const std::size_t p = i % kPool;
        const auto t0 = Clock::now();
        bpar::exec::InferResult r = ex.infer(pool[p], {.want_logits = true});
        const double ms = ms_since(t0);
        if (traced) {
          overhead_ms.push_back(ms - r.stats.wall_ms());
          layers.add(program.graph(), r.stats);
        }
        ++calls[p];
        if (first[p].empty()) {
          first[p] = std::move(r.logits);
          ++same_as_first[p];
        } else if (same_floats(first[p], r.logits)) {
          ++same_as_first[p];
        }
        return ms;
      });
  const double rss = peak_rss_mb();
  if (opts.trace) report_memory(report);

  BParExecutor ref(*sut.net, bpar_options(1, 1, /*quantized=*/true));
  std::size_t failed = 0;
  std::vector<int> ref_predictions;
  for (std::size_t p = 0; p < kPool; ++p) {
    if (calls[p] == 0) continue;
    bpar::exec::InferResult rr = ref.infer(pool[p], {.want_logits = true});
    failed += same_floats(first[p], rr.logits) ? calls[p] - same_as_first[p]
                                               : calls[p];
    if (p == 0) ref_predictions = std::move(rr.predictions);
  }
  report.check("infer_bgru_int8: logits == 1-worker mbs:1 int8 (bitwise)",
               failed == 0);
  report.count(times.calls(), failed);

  bpar::exec::SequentialExecutor fp32(*sut.net);
  const bpar::exec::InferResult fr = fp32.infer(pool[0]);
  std::size_t agree = 0;
  for (std::size_t j = 0; j < fr.predictions.size(); ++j) {
    if (j < ref_predictions.size() && fr.predictions[j] == ref_predictions[j]) {
      ++agree;
    }
  }
  const double agreement =
      fr.predictions.empty()
          ? 0.0
          : static_cast<double>(agree) /
                static_cast<double>(fr.predictions.size());
  std::printf("infer_bgru_int8: int8 vs fp32 argmax agreement %.4f\n",
              agreement);
  report.check("infer_bgru_int8: int8 vs fp32 argmax agreement >= 0.9",
               agreement >= 0.9);

  if (!opts.trace) {
    report_end_to_end(report, setup_s, times, cfg.batch_size, rss);
    return;
  }
  const double peak = report_kernels(report, cfg.batch_size / kReplicas,
                                     3 * cfg.hidden_size, cfg.hidden_size);
  layers.report(report, peak);
  report_graph(report, sut.build_ms, program.graph().size(),
               program.gemm_launches(), ex.cached_programs(false));
  report_hop(report, workers);
  report_trace_overhead(report, times);
  report.add("tail.p90_ms", sliced_quantile(times.plain_ms, 0.9), "ms");
  report_sim(report, program.graph(), workers, layers.wall_ms_p50());
  report_exec(report,
              ExecShape{.cfg = cfg,
                        .training = false,
                        .quantized = true,
                        .replicas = kReplicas,
                        .workers = workers},
              median(times.traced_ms), median(overhead_ms), opts.seed);
}

}  // namespace perfbench
