// Scalar kernel backend — the library's bit-reference implementation.
//
// Cache-blocked, written so GCC auto-vectorizes the inner loops, and kept
// deliberately simple: every SIMD backend is validated against these
// functions by the parity suite, and CI runs the whole test battery with
// BPAR_KERNEL_BACKEND=scalar forced.
#include <cmath>

#include "kernels/backend.hpp"
#include "kernels/gemm_common.hpp"
#include "kernels/quant.hpp"

namespace bpar::kernels {
namespace scalar {
namespace {

using detail::kBlockK;
using detail::kBlockM;
using detail::kBlockN;
using tensor::ConstMatrixView;
using tensor::MatrixView;

void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta) {
  detail::scale_c(c, beta);
  const int m = c.rows;
  const int n = c.cols;
  const int k = a.cols;
  for (int k0 = 0; k0 < k; k0 += kBlockK) {
    const int k1 = std::min(k, k0 + kBlockK);
    for (int i0 = 0; i0 < m; i0 += kBlockM) {
      const int i1 = std::min(m, i0 + kBlockM);
      for (int j0 = 0; j0 < n; j0 += kBlockN) {
        const int j1 = std::min(n, j0 + kBlockN);
        for (int i = i0; i < i1; ++i) {
          const float* arow = a.row(i).data();
          float* crow = c.row(i).data();
          for (int p = k0; p < k1; ++p) {
            const float av = alpha * arow[p];
            const float* brow = b.row(p).data();
            for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta) {
  detail::scale_c(c, beta);
  const int m = c.rows;
  const int n = c.cols;
  const int k = a.cols;
  // Blocked over k as well: for long-k shapes (wide hidden layers) a full-k
  // inner dot product streams both operand rows through L1 once per (i, j)
  // pair; with k-blocking the kc-slice of A's row and the kc x nc panel of
  // B stay resident across the j-loop (bench/micro_kernels BM_GemmNt shows
  // the win at k >= 512).
  for (int k0 = 0; k0 < k; k0 += kBlockK) {
    const int k1 = std::min(k, k0 + kBlockK);
    for (int i0 = 0; i0 < m; i0 += kBlockM) {
      const int i1 = std::min(m, i0 + kBlockM);
      for (int j0 = 0; j0 < n; j0 += kBlockN) {
        const int j1 = std::min(n, j0 + kBlockN);
        for (int i = i0; i < i1; ++i) {
          const float* arow = a.row(i).data();
          float* crow = c.row(i).data();
          for (int j = j0; j < j1; ++j) {
            // Dot product of two contiguous row slices — vectorizes cleanly.
            const float* brow = b.row(j).data();
            float acc = 0.0F;
            for (int p = k0; p < k1; ++p) acc += arow[p] * brow[p];
            crow[j] += alpha * acc;
          }
        }
      }
    }
  }
}

void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta) {
  detail::scale_c(c, beta);
  const int m = c.rows;  // = a.cols
  const int n = c.cols;  // = b.cols
  const int k = a.rows;  // = b.rows
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p).data();
    const float* brow = b.row(p).data();
    for (int i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      // No `av == 0` fast-path here: skipping the row would also skip
      // 0 * NaN = NaN from B, letting non-finite values sneak past the
      // trainer's all_finite guards (NanPropagation regression test).
      float* crow = c.row(i).data();
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemv_t(ConstMatrixView a, std::span<const float> x, std::span<float> y,
            float alpha, float beta) {
  if (beta == 0.0F) {
    std::fill(y.begin(), y.end(), 0.0F);
  } else if (beta != 1.0F) {
    for (auto& v : y) v *= beta;
  }
  for (int i = 0; i < a.rows; ++i) {
    const float av = alpha * x[static_cast<std::size_t>(i)];
    const float* arow = a.row(i).data();
    for (int j = 0; j < a.cols; ++j) {
      y[static_cast<std::size_t>(j)] += av * arow[j];
    }
  }
}

void sigmoid_inplace(std::span<float> v) {
  for (float& x : v) x = 1.0F / (1.0F + std::exp(-x));
}

void tanh_inplace(std::span<float> v) {
  for (float& x : v) x = std::tanh(x);
}

void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> dst) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = a[i] * b[i];
}

void hadamard_acc(std::span<const float> a, std::span<const float> b,
                  std::span<float> dst) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += a[i] * b[i];
}

void axpy(float s, std::span<const float> src, std::span<float> dst) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += s * src[i];
}

}  // namespace
}  // namespace scalar

const Backend& scalar_backend() {
  static const Backend backend = {
      .name = "scalar",
      .simd_width = 1,
      .gemm_nn = scalar::gemm_nn,
      .gemm_nt = scalar::gemm_nt,
      .gemm_tn = scalar::gemm_tn,
      .gemv_t = scalar::gemv_t,
      .sigmoid_inplace = scalar::sigmoid_inplace,
      .tanh_inplace = scalar::tanh_inplace,
      .hadamard = scalar::hadamard,
      .hadamard_acc = scalar::hadamard_acc,
      .axpy = scalar::axpy,
      .qgemm_nt = detail::qgemm_nt_reference,
  };
  return backend;
}

}  // namespace bpar::kernels
