// Task-graph construction for BRNN training and inference — the C++
// realization of the paper's Algorithms 1-3 (DESIGN.md §5k).
//
// A `TrainingProgram` owns every buffer a batch pass touches (input copies,
// per-replica workspaces and gradients, the master gradients) and a
// TaskGraph whose tasks reference those buffers. Dependencies are declared
// through buffer addresses exactly like OmpSs `in`/`out` clauses:
//
//   * forward-order cell (l, t):  in(h of (l, t-1), layer input)
//                                 out(h of (l, t))
//   * reverse-order cell (l, k):  mirrored over processing steps
//   * merge (l, t):               in(h_fwd, h_rev) out(merged(l, t))
//   * cell backward:              in(dh, dc, forward tape) inout(layer
//                                 grads, dh of predecessor, dmerged below)
//   * gradient reduction:         in(all replica grads) inout(master)
//
// build() adds every task straight to the TaskGraph: one task per cell per
// timestep, the form the paper describes. A forward cell runs one wide
// input-side gate GEMM (rnn/cell_kernels.hpp) for both cell types.
//
// Baseline schedules (per-layer barriers with sequential directions, fused
// merge) are selected with `BuildOptions::schedule`; see
// exec/baseline_profiles.hpp.
//
// The same program can be re-run for many batches: `load_batch` copies new
// data into the stable input buffers and `prepare` clears accumulators, so
// the graph (built once) stays valid.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rnn/batch.hpp"
#include "rnn/network.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::rnn {
class QuantizedNetwork;
}

namespace bpar::graph {

/// Schedule shape of the built graph.
enum class Schedule {
  kBPar,        // free-running task schedule (the paper's B-Par)
  kFusedMerge,  // merge folded into forward cells (the merge-fusion ablation)
  kFramework,   // per-layer barriers + sequential directions: the
                // Keras/PyTorch emulation
};

struct BuildOptions {
  int num_replicas = 1;   // mini-batch count (the paper's mbs:N)
  /// Override the network config's sequence length (0 = use the config's).
  /// Weights are shared across timesteps, so the same Network serves any
  /// sequence length — this is how B-Par handles variable-length batches
  /// (paper §III-B: "B-Par adjusts the computation graph dynamically").
  int seq_length_override = 0;
  bool training = true;   // false → forward + loss only
  bool executable = true; // false → shape-only graph (for the simulator)
  int intra_op_chunks = 1;  // split each cell into N chunks (shape-only)

  /// Also compute ∂L/∂x (per-timestep input gradients) during backward —
  /// off by default because layer 0 then pays an extra GEMM per cell.
  bool compute_input_grads = false;

  /// Non-null → executable inference graphs (training == false) route
  /// their cell and dense GEMMs through this int8 weight sidecar
  /// (DESIGN.md §5g). Ignored for training graphs; must outlive the
  /// program and be refreshed whenever the Network's weights change.
  const rnn::QuantizedNetwork* quantized = nullptr;

  Schedule schedule = Schedule::kBPar;
};

class TrainingProgram {
 public:
  /// Builds the graph for `net` with a total batch of `total_batch` rows
  /// split across opts.num_replicas mini-batches. `net` must outlive the
  /// program; its weights are read in place on every run.
  TrainingProgram(rnn::Network& net, int total_batch, BuildOptions opts);

  /// Copies batch data into the program's stable input buffers.
  void load_batch(const rnn::BatchData& batch);

  /// Zeroes all accumulators. Call before every graph execution.
  void prepare();

  /// Effective configuration (seq length possibly overridden).
  [[nodiscard]] const rnn::NetworkConfig& config() const { return cfg_; }

  [[nodiscard]] taskrt::TaskGraph& graph() { return graph_; }
  [[nodiscard]] const taskrt::TaskGraph& graph() const { return graph_; }
  [[nodiscard]] const BuildOptions& options() const { return opts_; }

  /// Mean loss over the whole batch; valid after an executable run.
  [[nodiscard]] double loss() const { return total_loss_; }
  /// Reduced gradients; valid after an executable training run.
  [[nodiscard]] rnn::NetworkGrads& grads() { return master_grads_; }

  [[nodiscard]] int num_replicas() const { return opts_.num_replicas; }
  [[nodiscard]] rnn::Workspace& replica(int r) { return *replicas_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] int replica_row_begin(int r) const { return row_begin_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] int total_batch() const { return total_batch_; }

  /// Softmax probabilities of replica `r`, output index `t`.
  [[nodiscard]] const tensor::Matrix& probs(int r, int t) {
    return replica(r).probs(t);
  }

  /// Always "none": there is one graph form. Kept because perfbench
  /// records it as provenance.
  [[nodiscard]] std::string pass_signature() const { return "none"; }
  /// GEMM launches one full graph execution performs (reporting).
  [[nodiscard]] std::size_t gemm_launches() const { return gemm_launches_; }

 private:
  struct ReplicaCtx;  // defined in the .cpp

  [[nodiscard]] bool framework_schedule() const {
    return opts_.schedule == Schedule::kFramework;
  }
  [[nodiscard]] bool fuses_merge() const {
    return opts_.schedule == Schedule::kFusedMerge;
  }
  void build();
  void build_replica(int rep);
  void build_forward_layer(ReplicaCtx& ctx, int l);
  void build_backward_layer(ReplicaCtx& ctx, int l);
  void build_loss_and_dense(ReplicaCtx& ctx);
  void build_dense_backward(ReplicaCtx& ctx);
  void build_reduction();

  /// Adds one task to the TaskGraph, splitting it into intra-op chunks when
  /// emulating intra-op-parallel frameworks (shape-only graphs).
  void add_task(std::function<void()> fn, std::vector<taskrt::Access> accesses,
                taskrt::TaskSpec spec, bool chunkable, int gemms = 0);

  const void* fresh_token() {
    tokens_.push_back(0);
    return &tokens_.back();
  }

  rnn::Network& net_;
  rnn::NetworkConfig cfg_;  // net_.config() with overrides applied
  BuildOptions opts_;
  int total_batch_;
  taskrt::TaskGraph graph_;

  std::vector<tensor::Matrix> x_;  // [T] stable input buffers, B x I
  std::vector<int> labels_;
  std::vector<std::unique_ptr<rnn::Workspace>> replicas_;
  std::vector<rnn::NetworkGrads> replica_grads_;
  std::vector<int> row_begin_;         // per replica
  std::vector<double> losses_;         // [rep * outputs + t]
  double total_loss_ = 0.0;
  rnn::NetworkGrads master_grads_;
  std::deque<char> tokens_;  // stable synthetic dependency addresses

  std::size_t gemm_launches_ = 0;

  // Shape-only mode: one synthetic-address arena per replica (the inner
  // buffers never move; only their data pointers are handed out).
  std::vector<std::vector<char>> arenas_;
  std::vector<std::size_t> grads_bases_;  // per replica, into its arena
  // Per-layer forward barrier tokens of the replica currently being built.
  std::vector<const void*> fwd_tokens_;
};

}  // namespace bpar::graph
