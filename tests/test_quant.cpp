// int8 quantization tests: round-trip error bounds, quantized GEMM vs fp32,
// and end-to-end int8-vs-fp32 inference parity on synthetic TIDIGITS
// (DESIGN.md §5g).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "data/tidigits.hpp"
#include "exec/bpar_executor.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "rnn/quantized.hpp"
#include "serve/engine.hpp"
#include "train/optimizer.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

using kernels::QuantizedMatrix;
using tensor::Matrix;

Matrix random_matrix(int rows, int cols, util::Rng& rng, float lo = -1.0F,
                     float hi = 1.0F) {
  Matrix m(rows, cols);
  tensor::fill_uniform(m.view(), rng, lo, hi);
  return m;
}

TEST(Quantize, RoundTripErrorBoundedByHalfStep) {
  util::Rng rng(1);
  const Matrix w = random_matrix(13, 37, rng, -2.5F, 2.5F);
  for (const bool per_channel : {true, false}) {
    QuantizedMatrix q;
    q.quantize_from(w.cview(), per_channel);
    const kernels::QuantView v = q.view();
    for (int r = 0; r < w.rows(); ++r) {
      const float scale = v.scales[r];
      ASSERT_GT(scale, 0.0F);
      for (int c = 0; c < w.cols(); ++c) {
        const float deq = static_cast<float>(v.at(r, c)) * scale;
        EXPECT_LE(std::abs(deq - w.at(r, c)), 0.5F * scale + 1e-6F)
            << (per_channel ? "per-channel" : "per-tensor") << " (" << r
            << "," << c << ")";
      }
    }
  }
}

TEST(Quantize, ZeroRowsQuantizeToExactZeros) {
  Matrix w(3, 8);  // all zeros
  w.at(1, 2) = 0.75F;
  QuantizedMatrix q;
  q.quantize_from(w.cview());
  const kernels::QuantView v = q.view();
  EXPECT_EQ(v.scales[0], 0.0F);
  EXPECT_EQ(v.scales[2], 0.0F);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(v.at(0, c), 0);
    EXPECT_EQ(v.at(2, c), 0);
  }
  EXPECT_GT(v.scales[1], 0.0F);
}

TEST(Quantize, QgemmMatchesFp32WithinQuantizationError) {
  util::Rng rng(2);
  const int m = 9, n = 21, k = 64;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  QuantizedMatrix qb;
  qb.quantize_from(b.cview());

  Matrix want(m, n);
  kernels::gemm_nt(a.cview(), b.cview(), want.view());
  Matrix got(m, n);
  kernels::qgemm_nt(a.cview(), qb.view(), got.view());

  // Analytic worst case: k * (sa*|b|max + sb*|a|max) / 2 with values in
  // [-1, 1] and scales ~ 1/127 → ~k/127. Random signs keep the observed
  // error far below it; pin both a hard bound and a mean bound.
  const float hard = static_cast<float>(k) / 64.0F;
  double total = 0.0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float diff = std::abs(got.at(i, j) - want.at(i, j));
      EXPECT_LE(diff, hard) << "(" << i << "," << j << ")";
      total += static_cast<double>(diff);
    }
  }
  EXPECT_LE(total / (m * n), 0.05);
}

TEST(Quantize, QgemmBetaOneAccumulatesAndBlocksSlice) {
  util::Rng rng(3);
  const int m = 6, k1 = 10, k2 = 14, n = 12;
  // Fused weight layout [B1 | B2] like an RNN's [x | h_prev] columns.
  const Matrix b = random_matrix(n, k1 + k2, rng);
  const Matrix a1 = random_matrix(m, k1, rng);
  const Matrix a2 = random_matrix(m, k2, rng);
  QuantizedMatrix qb;
  qb.quantize_from(b.cview());

  Matrix want(m, n);
  kernels::gemm_nt(a1.cview(), b.cview().block(0, 0, n, k1), want.view());
  kernels::gemm_nt(a2.cview(), b.cview().block(0, k1, n, k2), want.view(),
                   1.0F, 1.0F);

  Matrix got(m, n);
  kernels::qgemm_nt(a1.cview(), qb.view().block(0, 0, n, k1), got.view());
  kernels::qgemm_nt(a2.cview(), qb.view().block(0, k1, n, k2), got.view(),
                    1.0F);

  EXPECT_LT(tensor::max_abs_diff(got.cview(), want.cview()), 0.5F);
  double total = 0.0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      total += static_cast<double>(std::abs(got.at(i, j) - want.at(i, j)));
    }
  }
  EXPECT_LE(total / (m * n), 0.05);
}

// --------------------------------------------------------------------------
// End-to-end: int8 inference must agree with fp32 on a trained model.
// --------------------------------------------------------------------------

rnn::NetworkConfig tidigits_config(rnn::CellType cell) {
  rnn::NetworkConfig cfg;
  cfg.cell = cell;
  cfg.input_size = 16;
  cfg.hidden_size = 16;
  cfg.num_layers = 2;
  cfg.seq_length = 12;
  cfg.batch_size = 16;
  cfg.num_classes = data::kTidigitsClasses;
  cfg.seed = 7;
  return cfg;
}

std::vector<rnn::BatchData> tidigits_batches(const rnn::NetworkConfig& cfg) {
  data::TidigitsConfig dc;
  dc.feature_dim = cfg.input_size;
  dc.seq_length = cfg.seq_length;
  dc.num_utterances = 64;
  dc.seed = 99;
  data::TidigitsCorpus corpus(dc);
  return corpus.make_batches(cfg.batch_size);
}

void train_briefly(rnn::Network& net, const std::vector<rnn::BatchData>& data,
                   int epochs) {
  exec::BParExecutor trainer(net, {.common = {.num_workers = 2}});
  train::Sgd sgd({.learning_rate = 0.2F});
  for (int e = 0; e < epochs; ++e) {
    for (const auto& batch : data) {
      (void)trainer.train_batch(batch);
      sgd.step(net, trainer.grads());
    }
  }
}

struct ParityStats {
  double argmax_agreement = 1.0;
  float max_logit_diff = 0.0F;
  float max_logit_mag = 0.0F;
};

ParityStats infer_parity(rnn::Network& net,
                         const std::vector<rnn::BatchData>& data) {
  exec::BParExecutor fp32(net, {.common = {.num_workers = 2}});
  exec::BParExecutor int8(net, {.common = {.num_workers = 2},
                                .quantized_inference = true});
  int agree = 0, total = 0;
  ParityStats stats;
  for (const auto& batch : data) {
    const auto a = fp32.infer(batch, {.want_logits = true});
    const auto b = int8.infer(batch, {.want_logits = true});
    EXPECT_EQ(a.predictions.size(), b.predictions.size());
    for (std::size_t i = 0; i < a.predictions.size(); ++i) {
      agree += a.predictions[i] == b.predictions[i] ? 1 : 0;
      ++total;
    }
    EXPECT_EQ(a.logits.size(), b.logits.size());
    for (std::size_t i = 0; i < a.logits.size(); ++i) {
      stats.max_logit_diff =
          std::max(stats.max_logit_diff, std::abs(a.logits[i] - b.logits[i]));
      stats.max_logit_mag = std::max(stats.max_logit_mag,
                                     std::abs(a.logits[i]));
    }
  }
  stats.argmax_agreement =
      total == 0 ? 1.0 : static_cast<double>(agree) / total;
  return stats;
}

class QuantizedInference
    : public ::testing::TestWithParam<rnn::CellType> {};

TEST_P(QuantizedInference, MatchesFp32OnTrainedTidigits) {
  const rnn::NetworkConfig cfg = tidigits_config(GetParam());
  rnn::Network net(cfg);
  const auto data = tidigits_batches(cfg);
  ASSERT_FALSE(data.empty());
  train_briefly(net, data, 3);

  const ParityStats stats = infer_parity(net, data);
  // Per-channel int8 weights keep argmax agreement high and logit drift a
  // small fraction of the logit range on this task.
  EXPECT_GE(stats.argmax_agreement, 0.9);
  EXPECT_GT(stats.max_logit_mag, 0.0F);
  EXPECT_LE(stats.max_logit_diff,
            std::max(0.25F, 0.15F * stats.max_logit_mag));
}

INSTANTIATE_TEST_SUITE_P(Cells, QuantizedInference,
                         ::testing::Values(rnn::CellType::kLstm,
                                           rnn::CellType::kGru));

// The int8 GEMM is bitwise equal across backends, so swapping the native
// int8 core for the scalar one must leave a whole int8 inference bitwise
// unchanged. (The scalar backend as a whole differs: its activations use
// libm exp where SIMD backends use a polynomial.) Both runs happen in one
// process, switching the table between them.
TEST_P(QuantizedInference, LogitsBitwiseEqualAcrossQgemmCores) {
  // 40 units: every gate block starts on a 16-row panel. 20 units: the
  // GRU candidate block starts inside one, so its GEMM takes the fallback.
  for (const int hidden : {40, 20}) {
    rnn::NetworkConfig cfg = tidigits_config(GetParam());
    cfg.hidden_size = hidden;
    rnn::Network net(cfg);
    const auto data = tidigits_batches(cfg);
    ASSERT_FALSE(data.empty());
    exec::BParExecutor int8(net, {.common = {.num_workers = 2},
                                  .quantized_inference = true});
    kernels::Backend reference_core = kernels::native_backend();
    reference_core.qgemm_nt = kernels::scalar_backend().qgemm_nt;
    const std::string active = kernels::active_backend_name();
    kernels::set_backend(reference_core);
    const auto want = int8.infer(data.front(), {.want_logits = true});
    EXPECT_TRUE(kernels::set_backend("native"));  // no early return here
    const auto got = int8.infer(data.front(), {.want_logits = true});
    ASSERT_TRUE(kernels::set_backend(active));
    ASSERT_FALSE(want.logits.empty());
    ASSERT_EQ(got.logits.size(), want.logits.size());
    EXPECT_EQ(std::memcmp(got.logits.data(), want.logits.data(),
                          sizeof(float) * want.logits.size()),
              0)
        << "native backend " << kernels::native_backend().name
        << ", hidden " << hidden;
  }
}

TEST(QuantizedInference, RefreshTracksWeightUpdates) {
  const rnn::NetworkConfig cfg = tidigits_config(rnn::CellType::kGru);
  rnn::Network net(cfg);
  const auto data = tidigits_batches(cfg);
  exec::BParExecutor int8(net, {.common = {.num_workers = 2},
                                .quantized_inference = true});
  const auto before = int8.infer(data.front(), {.want_logits = true});

  // Mutate the classifier: without refresh the sidecar would still serve
  // the stale int8 copy.
  for (int r = 0; r < net.w_out.rows(); ++r) {
    for (int c = 0; c < net.w_out.cols(); ++c) {
      net.w_out.at(r, c) = -net.w_out.at(r, c);
    }
  }
  int8.refresh_quantized_weights();
  const auto after = int8.infer(data.front(), {.want_logits = true});
  ASSERT_EQ(before.logits.size(), after.logits.size());
  float max_diff = 0.0F;
  for (std::size_t i = 0; i < before.logits.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(before.logits[i] - after.logits[i]));
  }
  EXPECT_GT(max_diff, 1e-3F);  // negated weights must change the logits
}

TEST(QuantizedInference, ServingEngineServesInt8) {
  const rnn::NetworkConfig cfg = tidigits_config(rnn::CellType::kLstm);
  rnn::Network trained(cfg);
  const auto data = tidigits_batches(cfg);
  train_briefly(trained, data, 1);

  serve::EngineOptions options;
  options.executor.num_workers = 2;
  options.quantized = true;
  serve::InferenceEngine engine(cfg, options);
  // Install the trained weights through the save/load path (as a serving
  // deployment would) before any request builds the int8 sidecar.
  std::stringstream weights;
  trained.save(weights);
  engine.network().load(weights);

  serve::Request request;
  request.steps = cfg.seq_length;
  request.features.resize(static_cast<std::size_t>(cfg.seq_length) *
                          cfg.input_size);
  const auto& x0 = data.front().x;
  for (int t = 0; t < cfg.seq_length; ++t) {
    for (int f = 0; f < cfg.input_size; ++f) {
      request.features[static_cast<std::size_t>(t) * cfg.input_size + f] =
          x0[static_cast<std::size_t>(t)].at(0, f);
    }
  }
  request.want_logits = true;
  const serve::Response response = engine.infer(std::move(request));
  EXPECT_EQ(response.status, serve::Status::kOk);
  ASSERT_EQ(response.predictions.size(), 1U);

  // Must match the plain quantized executor on the same single row.
  exec::BParExecutor int8(trained, {.quantized_inference = true});
  rnn::BatchData one;
  one.x.resize(static_cast<std::size_t>(cfg.seq_length));
  for (int t = 0; t < cfg.seq_length; ++t) {
    auto& m = one.x[static_cast<std::size_t>(t)];
    m.resize(1, cfg.input_size);
    for (int f = 0; f < cfg.input_size; ++f) {
      m.at(0, f) = x0[static_cast<std::size_t>(t)].at(0, f);
    }
  }
  one.labels = {data.front().labels.front()};
  const auto direct = int8.infer(one, {.want_logits = true});
  EXPECT_EQ(response.predictions[0], direct.predictions[0]);
  engine.shutdown();
}

}  // namespace
}  // namespace bpar
