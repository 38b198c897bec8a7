// int8 symmetric quantization + quantized GEMM (DESIGN.md §5g).
//
// The opt-in int8 inference path quantizes trained fp32 weights once at
// load time (per-tensor or per-channel scales — a channel is an output row
// of the fused gate matrix, i.e. one unit of one gate) and activations
// dynamically per call with one scale per batch row. The GEMM accumulates
// int8 x int8 products exactly in int32 and dequantizes to fp32 at the
// activation boundary:
//
//   C(i, j) (+)= a_scale(i) * b_scale(j) * sum_k Aq(i, k) * Bq(j, k)
//
// Quantization is symmetric (zero-point 0, scale = max|x| / 127), so
// column sub-blocks of a quantized matrix (the x vs h_prev halves of a
// fused RNN weight matrix) share their row's scale and can be sliced with
// QuantView::block exactly like fp32 MatrixViews.
//
// Weights are stored once, packed for the VNNI microkernel: panels of
// kPanelRows output rows, each panel a run of k-groups of kGroupK
// columns, each group 16 rows x 4 bytes. A byte holds the weight offset
// to unsigned (q + 128), the operand vpdpbusd multiplies as u8; padding
// rows and columns hold 128, i.e. weight 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/backend.hpp"
#include "tensor/aligned.hpp"
#include "tensor/tensor.hpp"

namespace bpar::kernels {

inline constexpr int kPanelRows = 16;
inline constexpr int kGroupK = 4;

/// Non-owning view of a block of a packed int8 matrix with per-row
/// dequantization scales. `scales` has one entry per row (per-tensor
/// quantization just repeats the same value), indexed relative to the
/// view's first row.
struct QuantView {
  const std::uint8_t* panels = nullptr;  // the whole packed matrix
  int groups = 0;  // k-groups per panel of the whole matrix
  int row0 = 0;    // origin of this view in the whole matrix
  int col0 = 0;
  int rows = 0;
  int cols = 0;
  const float* scales = nullptr;

  [[nodiscard]] QuantView block(int r0, int c0, int nr, int nc) const {
    return {panels, groups, row0 + r0, col0 + c0, nr, nc, scales + r0};
  }
  /// Byte offset of element (row, col) of the whole matrix.
  [[nodiscard]] std::size_t offset(int row, int col) const {
    const std::size_t group =
        static_cast<std::size_t>(row / kPanelRows) * groups + col / kGroupK;
    return (group * kPanelRows + row % kPanelRows) * kGroupK + col % kGroupK;
  }
  /// Quantized value of element (r, c) of this view.
  [[nodiscard]] std::int8_t at(int r, int c) const {
    return static_cast<std::int8_t>(panels[offset(row0 + r, col0 + c)] - 128);
  }
};

/// Owning int8 matrix produced by quantizing an fp32 weight matrix.
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  /// (Re)quantizes and packs `w` in place; per_channel → one scale per
  /// row, otherwise one scale for the whole tensor (stored per-row anyway
  /// so QuantView never branches).
  void quantize_from(tensor::ConstMatrixView w, bool per_channel = true);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] QuantView view() const {
    return {panels_.data(), groups_, 0, 0, rows_, cols_, scales_.data()};
  }

 private:
  // Cache-line aligned: the VNNI core loads each 64-byte k-group (and 16
  // scales) whole, and at a heap-dependent offset every such load would
  // straddle two lines, so the kernel's speed varied from run to run.
  template <typename T>
  using Aligned = std::vector<T, tensor::CacheLineAllocator<T>>;
  Aligned<std::uint8_t> panels_;
  Aligned<float> scales_;  // one per row, always
  int rows_ = 0;
  int cols_ = 0;
  int groups_ = 0;
};

/// C = dequant(Aq · Bq^T) + beta * C with A (fp32 activations) quantized
/// dynamically per row inside the call. Shapes as gemm_nt: A(m,k), B(n,k),
/// C(m,n). beta follows the shared BLAS semantics (0 overwrites). The
/// result is bitwise equal on every backend.
void qgemm_nt(tensor::ConstMatrixView a, const QuantView& b,
              tensor::MatrixView c, float beta = 0.0F);

namespace detail {

/// Symmetric per-row activation quantization shared by every qgemm core:
/// scale = max|x| / 127 (0 for an all-zero row), q = nearbyint(x / scale)
/// clamped to ±127.
[[nodiscard]] inline float scale_for(float max_abs) { return max_abs / 127.0F; }

/// Accumulating cores behind Backend::qgemm_nt: C += dequant(Aq · Bq^T).
/// The reference core serves every backend without a faster one; the VNNI
/// core (qgemm_vnni.cpp) runs only after the avx512 backend's cpuid check
/// and falls back to the reference for views whose first row is not on a
/// panel boundary.
void qgemm_nt_reference(tensor::ConstMatrixView a, const QuantView& b,
                        tensor::MatrixView c);
void qgemm_nt_vnni(tensor::ConstMatrixView a, const QuantView& b,
                   tensor::MatrixView c);

}  // namespace detail
}  // namespace bpar::kernels
