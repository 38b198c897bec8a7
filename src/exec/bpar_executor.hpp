// B-Par: the paper's barrier-free task-graph executor.
//
// Builds the training and inference task graphs once (paper Algorithms
// 1-3, via graph::TrainingProgram) and executes them on the OmpSs-like
// runtime for every batch. Mini-batch data parallelism composes with model
// parallelism through `num_replicas` (the paper's mbs:N).
// Batches may have any sequence length: weights are shared across
// timesteps, so the executor keeps one cached program per observed length
// and "adjusts the computation graph dynamically" (paper §III-B) by
// building a new graph the first time a length appears.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "exec/common_options.hpp"
#include "exec/executor.hpp"
#include "graph/brnn_graph.hpp"
#include "rnn/quantized.hpp"

namespace bpar::exec {

struct BParOptions {
  /// Workers, replicas (mbs:N), policy, pinning, watchdog, faults.
  CommonOptions common{};
  bool record_trace = false;
  bool compute_input_grads = false;  // also produce per-timestep dL/dx
  /// Per-task-class hardware counters (RunStats::kind_counters); no-op
  /// when perf_event_open is unavailable.
  bool sample_counters = false;
  /// int8 inference (DESIGN.md §5g): quantize the trained fp32 weights
  /// once (per output channel) and run inference-graph GEMMs in int8 with
  /// fp32 dequantization at the activation boundary. Training always stays
  /// fp32. Call refresh_quantized_weights() after mutating the Network.
  bool quantized_inference = false;
  /// Schedule shape forwarded to BuildOptions::schedule_profile ("" =
  /// free-running B-Par; "fused_merge" is the merge-fusion ablation,
  /// baseline emulations use "framework" etc.).
  std::string schedule_profile{};
};

class BParExecutor final : public Executor {
 public:
  BParExecutor(rnn::Network& net, BParOptions options);
  ~BParExecutor() override;  // releases program-cache memory accounting

  StepResult train_batch(const rnn::BatchData& batch) override;
  using Executor::infer;
  InferResult infer(const rnn::BatchData& batch,
                    const InferOptions& options) override;
  /// Gradients of the most recent train_batch (which may have used a
  /// non-default sequence length).
  rnn::NetworkGrads& grads() override {
    return (last_train_ != nullptr ? *last_train_ : train_program()).grads();
  }
  [[nodiscard]] const char* name() const override { return "b-par"; }

  /// Program for the config's default shape, or for the (`seq_length`,
  /// `batch_rows`) shape bucket when given (0 → the config's value); built
  /// on first use and cached forever, so repeated calls with the same shape
  /// replay the prebuilt graph instead of rebuilding it — the contract the
  /// serving engine (src/serve) relies on.
  [[nodiscard]] graph::TrainingProgram& train_program(int seq_length = 0,
                                                      int batch_rows = 0);
  [[nodiscard]] graph::TrainingProgram& infer_program(int seq_length = 0,
                                                      int batch_rows = 0);
  [[nodiscard]] taskrt::Runtime& runtime() { return runtime_; }
  /// Number of distinct (seq_length, batch) shapes with cached graphs.
  [[nodiscard]] std::size_t cached_programs(bool training) const {
    return training ? train_programs_.size() : infer_programs_.size();
  }

  /// Re-quantizes the int8 weight sidecar from the current fp32 weights.
  /// Required after in-place weight updates (training steps, load_weights)
  /// when quantized_inference is on; cheap no-op otherwise.
  void refresh_quantized_weights();
  [[nodiscard]] bool quantized_inference() const {
    return options_.quantized_inference;
  }

 private:
  using ShapeKey = std::pair<int, int>;  // (seq_length, batch_rows)
  graph::TrainingProgram& program(bool training, int seq_length,
                                  int batch_rows);

  rnn::Network& net_;
  BParOptions options_;
  taskrt::Runtime runtime_;
  /// int8 weight sidecar shared by every cached inference program; built
  /// lazily the first time an inference graph is requested.
  std::unique_ptr<rnn::QuantizedNetwork> quantized_;
  std::map<ShapeKey, std::unique_ptr<graph::TrainingProgram>> train_programs_;
  std::map<ShapeKey, std::unique_ptr<graph::TrainingProgram>> infer_programs_;
  graph::TrainingProgram* last_train_ = nullptr;
};

}  // namespace bpar::exec
