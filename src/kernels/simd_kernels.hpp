// ISA-generic SIMD kernel bodies (internal header — backend TUs only).
//
// Each SIMD backend TU (backend_avx2.cpp / backend_avx512.cpp /
// backend_neon.cpp) is compiled with its ISA's flags, defines a small
// vector-traits struct V, and instantiates SimdKernels<V>. The kernel
// logic — register-tiled GEMM micro-loops, the polynomial exp used by the
// fused activations — is written once here against the traits interface:
//
//   using reg = ...;              native float vector
//   static constexpr int kWidth;  floats per reg
//   load/loadu, store, set1, zero, add, sub, mul, div, min, max
//   fma(a, b, c) = a*b + c
//   hsum(reg) -> float
//   round_nearest(reg)
//   scale_by_pow2(x, n) = x * 2^(int)n   (n integral-valued float reg)
//
// Tails (sizes not a multiple of kWidth) take scalar loops; the scalar
// code matches what detail::scale_c + the vector body compute, so a
// backend is self-consistent across sizes. Scalar tails of the activation
// kernels intentionally reuse the SAME polynomial exp (exp_scalar) rather
// than libm, so a row's numerics do not depend on where the vector loop
// stopped.
#pragma once

#include <cmath>

#include "kernels/backend.hpp"
#include "kernels/gemm_common.hpp"
#include "kernels/quant.hpp"

namespace bpar::kernels::simd {

// Cephes-style expf constants (same polynomial the classic avx_mathfun /
// SLEEF-u10 fast paths use; ~2 ulp over the reduced range).
inline constexpr float kLog2e = 1.44269504088896341F;
inline constexpr float kLn2Hi = 0.693359375F;
inline constexpr float kLn2Lo = -2.12194440e-4F;
inline constexpr float kExpHi = 88.02F;   // just below log(FLT_MAX)
inline constexpr float kExpLo = -87.0F;   // exp() of this is still normal
inline constexpr float kExpC0 = 1.9875691500e-4F;
inline constexpr float kExpC1 = 1.3981999507e-3F;
inline constexpr float kExpC2 = 8.3334519073e-3F;
inline constexpr float kExpC3 = 4.1665795894e-2F;
inline constexpr float kExpC4 = 1.6666665459e-1F;
inline constexpr float kExpC5 = 5.0000001201e-1F;

/// Scalar twin of exp_ps below — used for activation tails so the whole
/// span sees one set of numerics.
inline float exp_scalar(float x) {
  x = x > kExpHi ? kExpHi : (x < kExpLo ? kExpLo : x);
  const float n = std::nearbyint(x * kLog2e);
  float r = x - n * kLn2Hi;
  r -= n * kLn2Lo;
  float p = kExpC0;
  p = p * r + kExpC1;
  p = p * r + kExpC2;
  p = p * r + kExpC3;
  p = p * r + kExpC4;
  p = p * r + kExpC5;
  p = p * r * r + r + 1.0F;
  return std::ldexp(p, static_cast<int>(n));
}

inline float sigmoid_scalar(float x) {
  return 1.0F / (1.0F + exp_scalar(-x));
}

inline float tanh_scalar(float x) {
  const float e = exp_scalar(-2.0F * x);
  return (1.0F - e) / (1.0F + e);
}

template <class V>
struct SimdKernels {
  using reg = typename V::reg;
  static constexpr int kW = V::kWidth;

  // ---- vectorized exp / sigmoid / tanh ----

  static reg exp_ps(reg x) {
    x = V::min(x, V::set1(kExpHi));
    x = V::max(x, V::set1(kExpLo));
    const reg n = V::round_nearest(V::mul(x, V::set1(kLog2e)));
    reg r = V::fma(n, V::set1(-kLn2Hi), x);
    r = V::fma(n, V::set1(-kLn2Lo), r);
    reg p = V::set1(kExpC0);
    p = V::fma(p, r, V::set1(kExpC1));
    p = V::fma(p, r, V::set1(kExpC2));
    p = V::fma(p, r, V::set1(kExpC3));
    p = V::fma(p, r, V::set1(kExpC4));
    p = V::fma(p, r, V::set1(kExpC5));
    p = V::fma(V::mul(p, r), r, V::add(r, V::set1(1.0F)));
    return V::scale_by_pow2(p, n);
  }

  static void sigmoid_inplace(std::span<float> v) {
    const reg one = V::set1(1.0F);
    std::size_t i = 0;
    for (; i + kW <= v.size(); i += kW) {
      const reg x = V::loadu(v.data() + i);
      const reg e = exp_ps(V::sub(V::zero(), x));
      V::storeu(v.data() + i, V::div(one, V::add(one, e)));
    }
    for (; i < v.size(); ++i) v[i] = sigmoid_scalar(v[i]);
  }

  static void tanh_inplace(std::span<float> v) {
    const reg one = V::set1(1.0F);
    const reg m2 = V::set1(-2.0F);
    std::size_t i = 0;
    for (; i + kW <= v.size(); i += kW) {
      const reg x = V::loadu(v.data() + i);
      const reg e = exp_ps(V::mul(m2, x));
      V::storeu(v.data() + i, V::div(V::sub(one, e), V::add(one, e)));
    }
    for (; i < v.size(); ++i) v[i] = tanh_scalar(v[i]);
  }

  // ---- pointwise vector ops ----

  static void hadamard(std::span<const float> a, std::span<const float> b,
                       std::span<float> dst) {
    std::size_t i = 0;
    for (; i + kW <= dst.size(); i += kW) {
      V::storeu(dst.data() + i,
                V::mul(V::loadu(a.data() + i), V::loadu(b.data() + i)));
    }
    for (; i < dst.size(); ++i) dst[i] = a[i] * b[i];
  }

  static void hadamard_acc(std::span<const float> a, std::span<const float> b,
                           std::span<float> dst) {
    std::size_t i = 0;
    for (; i + kW <= dst.size(); i += kW) {
      V::storeu(dst.data() + i,
                V::fma(V::loadu(a.data() + i), V::loadu(b.data() + i),
                       V::loadu(dst.data() + i)));
    }
    for (; i < dst.size(); ++i) dst[i] += a[i] * b[i];
  }

  static void axpy(float s, std::span<const float> src, std::span<float> dst) {
    const reg sv = V::set1(s);
    std::size_t i = 0;
    for (; i + kW <= dst.size(); i += kW) {
      V::storeu(dst.data() + i,
                V::fma(sv, V::loadu(src.data() + i), V::loadu(dst.data() + i)));
    }
    for (; i < dst.size(); ++i) dst[i] += s * src[i];
  }

  // ---- GEMM family ----
  // All three pre-scale C through the shared detail::scale_c and then pure
  // accumulate, exactly like the scalar reference.

  /// C += alpha * A * B, register-tiled: 4 C vectors (one row, 4*kW
  /// columns) stay in registers across a whole k-block.
  static void gemm_nn(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView c, float alpha, float beta) {
    detail::scale_c(c, beta);
    const int m = c.rows;
    const int n = c.cols;
    const int k = a.cols;
    for (int k0 = 0; k0 < k; k0 += detail::kBlockK) {
      const int k1 = std::min(k, k0 + detail::kBlockK);
      for (int i = 0; i < m; ++i) {
        const float* arow = a.row(i).data();
        float* crow = c.row(i).data();
        int j = 0;
        for (; j + 4 * kW <= n; j += 4 * kW) {
          reg c0 = V::loadu(crow + j);
          reg c1 = V::loadu(crow + j + kW);
          reg c2 = V::loadu(crow + j + 2 * kW);
          reg c3 = V::loadu(crow + j + 3 * kW);
          for (int p = k0; p < k1; ++p) {
            const reg av = V::set1(alpha * arow[p]);
            const float* brow = b.row(p).data() + j;
            c0 = V::fma(av, V::loadu(brow), c0);
            c1 = V::fma(av, V::loadu(brow + kW), c1);
            c2 = V::fma(av, V::loadu(brow + 2 * kW), c2);
            c3 = V::fma(av, V::loadu(brow + 3 * kW), c3);
          }
          V::storeu(crow + j, c0);
          V::storeu(crow + j + kW, c1);
          V::storeu(crow + j + 2 * kW, c2);
          V::storeu(crow + j + 3 * kW, c3);
        }
        for (; j + kW <= n; j += kW) {
          reg c0 = V::loadu(crow + j);
          for (int p = k0; p < k1; ++p) {
            c0 = V::fma(V::set1(alpha * arow[p]), V::loadu(b.row(p).data() + j),
                        c0);
          }
          V::storeu(crow + j, c0);
        }
        for (; j < n; ++j) {
          float acc = crow[j];
          for (int p = k0; p < k1; ++p) {
            acc += alpha * arow[p] * b.row(p).data()[j];
          }
          crow[j] = acc;
        }
      }
    }
  }

  /// C += alpha * A * B^T: k-blocked row-dot-products, 4 accumulator
  /// vectors per (i, j) pair to hide FMA latency.
  static void gemm_nt(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView c, float alpha, float beta) {
    detail::scale_c(c, beta);
    const int m = c.rows;
    const int n = c.cols;
    const int k = a.cols;
    for (int k0 = 0; k0 < k; k0 += detail::kBlockK) {
      const int k1 = std::min(k, k0 + detail::kBlockK);
      const int kb = k1 - k0;
      for (int i0 = 0; i0 < m; i0 += detail::kBlockM) {
        const int i1 = std::min(m, i0 + detail::kBlockM);
        for (int j0 = 0; j0 < n; j0 += detail::kBlockN) {
          const int j1 = std::min(n, j0 + detail::kBlockN);
          for (int i = i0; i < i1; ++i) {
            const float* arow = a.row(i).data() + k0;
            float* crow = c.row(i).data();
            for (int j = j0; j < j1; ++j) {
              const float* brow = b.row(j).data() + k0;
              reg s0 = V::zero();
              reg s1 = V::zero();
              reg s2 = V::zero();
              reg s3 = V::zero();
              int p = 0;
              for (; p + 4 * kW <= kb; p += 4 * kW) {
                s0 = V::fma(V::loadu(arow + p), V::loadu(brow + p), s0);
                s1 = V::fma(V::loadu(arow + p + kW), V::loadu(brow + p + kW),
                            s1);
                s2 = V::fma(V::loadu(arow + p + 2 * kW),
                            V::loadu(brow + p + 2 * kW), s2);
                s3 = V::fma(V::loadu(arow + p + 3 * kW),
                            V::loadu(brow + p + 3 * kW), s3);
              }
              for (; p + kW <= kb; p += kW) {
                s0 = V::fma(V::loadu(arow + p), V::loadu(brow + p), s0);
              }
              float acc =
                  V::hsum(V::add(V::add(s0, s1), V::add(s2, s3)));
              for (; p < kb; ++p) acc += arow[p] * brow[p];
              crow[j] += alpha * acc;
            }
          }
        }
      }
    }
  }

  /// C += alpha * A^T * B: rank-1 updates vectorized along C's rows. No
  /// zero fast-path — 0 * NaN must stay NaN (see scalar gemm_tn).
  static void gemm_tn(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView c, float alpha, float beta) {
    detail::scale_c(c, beta);
    const int m = c.rows;  // = a.cols
    const int n = c.cols;  // = b.cols
    const int k = a.rows;  // = b.rows
    for (int p = 0; p < k; ++p) {
      const float* arow = a.row(p).data();
      const float* brow = b.row(p).data();
      for (int i = 0; i < m; ++i) {
        const float avs = alpha * arow[i];
        const reg av = V::set1(avs);
        float* crow = c.row(i).data();
        int j = 0;
        for (; j + kW <= n; j += kW) {
          V::storeu(crow + j, V::fma(av, V::loadu(brow + j),
                                     V::loadu(crow + j)));
        }
        for (; j < n; ++j) crow[j] += avs * brow[j];
      }
    }
  }

  /// y = alpha * A^T x + beta * y — same rank-1 shape as gemm_tn.
  static void gemv_t(tensor::ConstMatrixView a, std::span<const float> x,
                     std::span<float> y, float alpha, float beta) {
    if (beta == 0.0F) {
      std::fill(y.begin(), y.end(), 0.0F);
    } else if (beta != 1.0F) {
      for (auto& v : y) v *= beta;
    }
    const int n = a.cols;
    for (int i = 0; i < a.rows; ++i) {
      const float avs = alpha * x[static_cast<std::size_t>(i)];
      const reg av = V::set1(avs);
      const float* arow = a.row(i).data();
      float* yd = y.data();
      int j = 0;
      for (; j + kW <= n; j += kW) {
        V::storeu(yd + j, V::fma(av, V::loadu(arow + j), V::loadu(yd + j)));
      }
      for (; j < n; ++j) yd[j] += avs * arow[j];
    }
  }

  /// Assembles the Backend table for this ISA.
  static Backend make_backend(const char* name) {
    return Backend{
        .name = name,
        .simd_width = kW,
        .gemm_nn = gemm_nn,
        .gemm_nt = gemm_nt,
        .gemm_tn = gemm_tn,
        .gemv_t = gemv_t,
        .sigmoid_inplace = sigmoid_inplace,
        .tanh_inplace = tanh_inplace,
        .hadamard = hadamard,
        .hadamard_acc = hadamard_acc,
        .axpy = axpy,
        .qgemm_nt = detail::qgemm_nt_reference,
    };
  }
};

}  // namespace bpar::kernels::simd
