#include "kernels/quant.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/gemm_common.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bpar::kernels {
namespace {

using detail::scale_for;

inline std::int8_t quantize_one(float v, float inv_scale) {
  const float q = std::nearbyint(v * inv_scale);
  return static_cast<std::int8_t>(std::clamp(q, -127.0F, 127.0F));
}

/// An all-zero row gets scale 0: it quantizes to zeros and dequantizes to
/// exact zeros. `Q` is any integer type wide enough for ±127.
template <typename Q>
void quantize_row(const float* src, int n, Q* dst, float scale) {
  if (scale == 0.0F) {
    std::fill_n(dst, n, Q{0});
    return;
  }
  const float inv = 1.0F / scale;
  for (int j = 0; j < n; ++j) dst[j] = quantize_one(src[j], inv);
}

float row_max_abs(const float* src, int n) {
  float mx = 0.0F;
  for (int j = 0; j < n; ++j) mx = std::max(mx, std::abs(src[j]));
  return mx;
}

int round_up(int v, int to) { return (v + to - 1) / to * to; }

}  // namespace

void QuantizedMatrix::quantize_from(tensor::ConstMatrixView w,
                                    bool per_channel) {
  rows_ = w.rows;
  cols_ = w.cols;
  groups_ = round_up(cols_, kGroupK) / kGroupK;
  scales_.assign(static_cast<std::size_t>(rows_), 0.0F);
  if (per_channel) {
    for (int r = 0; r < rows_; ++r) {
      const float* src = w.row(r).data();
      scales_[static_cast<std::size_t>(r)] = scale_for(row_max_abs(src, cols_));
    }
  } else {
    float mx = 0.0F;
    for (int r = 0; r < rows_; ++r) {
      mx = std::max(mx, row_max_abs(w.row(r).data(), cols_));
    }
    std::fill(scales_.begin(), scales_.end(), scale_for(mx));
  }
  // 128 is weight 0: padding rows and columns contribute nothing.
  panels_.assign(static_cast<std::size_t>(round_up(rows_, kPanelRows)) *
                     groups_ * kGroupK,
                 std::uint8_t{128});
  const QuantView packed = view();
  std::vector<std::int8_t> row(static_cast<std::size_t>(cols_));
  for (int r = 0; r < rows_; ++r) {
    quantize_row(w.row(r).data(), cols_, row.data(),
                 scales_[static_cast<std::size_t>(r)]);
    for (int c = 0; c < cols_; ++c) {
      panels_[packed.offset(r, c)] =
          static_cast<std::uint8_t>(row[static_cast<std::size_t>(c)] + 128);
    }
  }
}

void qgemm_nt(tensor::ConstMatrixView a, const QuantView& b,
              tensor::MatrixView c, float beta) {
  BPAR_SPAN("kernels.qgemm_nt");
  BPAR_CHECK(a.rows == c.rows && b.rows == c.cols && a.cols == b.cols,
             "qgemm_nt shape mismatch: A ", a.rows, "x", a.cols, " B ", b.rows,
             "x", b.cols, " C ", c.rows, "x", c.cols);
  detail::scale_c(c, beta);
  active_backend().qgemm_nt(a, b, c);
}

namespace detail {

// The bit reference. This file is compiled without floating-point
// contraction (src/kernels/CMakeLists.txt) so the epilogue stays a
// multiply, a multiply and an add on every target, as in the VNNI core.
void qgemm_nt_reference(tensor::ConstMatrixView a, const QuantView& b,
                        tensor::MatrixView c) {
  // Dynamic per-row activation quantization into thread-local scratch
  // (tasks run concurrently; each worker keeps its own buffers).
  thread_local std::vector<std::int16_t> aq;
  thread_local std::vector<float> ascale;
  thread_local std::vector<std::int16_t> brow;
  const int m = a.rows;
  const int n = c.cols;
  const int k = a.cols;
  // int16 operands: the int32 dot products then vectorize as pmaddwd.
  aq.resize(static_cast<std::size_t>(m) * k);
  ascale.resize(static_cast<std::size_t>(m));
  brow.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < m; ++i) {
    const float* src = a.row(i).data();
    const float scale = scale_for(row_max_abs(src, k));
    ascale[static_cast<std::size_t>(i)] = scale;
    quantize_row(src, k, aq.data() + static_cast<std::size_t>(i) * k, scale);
  }

  for (int j = 0; j < n; ++j) {
    const float sb = b.scales[j];
    if (sb == 0.0F) continue;  // exact zero channel contributes nothing
    for (int p = 0; p < k; ++p) brow[static_cast<std::size_t>(p)] = b.at(j, p);
    for (int i = 0; i < m; ++i) {
      const float sa = ascale[static_cast<std::size_t>(i)];
      if (sa == 0.0F) continue;  // exact zero row contributes nothing
      const std::int16_t* arow = aq.data() + static_cast<std::size_t>(i) * k;
      std::int32_t dot = 0;
      for (int p = 0; p < k; ++p) {
        dot += static_cast<std::int32_t>(arow[p]) *
               static_cast<std::int32_t>(brow[static_cast<std::size_t>(p)]);
      }
      c.at(i, j) += sa * sb * static_cast<float>(dot);
    }
  }
}

}  // namespace detail
}  // namespace bpar::kernels
