// AVX-512 VNNI core of the int8 GEMM (DESIGN.md §5g). Compiled with
// -mavx512vnni and without floating-point contraction; it runs only after
// avx512_backend() has seen avx512vnni in cpuid.
//
// vpdpbusd multiplies u8 by s8, so the packed weights carry a +128 offset
// (quant.hpp) and the activations stay signed: the kernel accumulates
// sum_k (Bq + 128) * Aq = dot + 128 * sum_k Aq and subtracts the second
// term per activation row. Both sums are exact in int32, so the result is
// bitwise equal to detail::qgemm_nt_reference.
#include "kernels/quant.hpp"

#if defined(__x86_64__) || defined(_M_X64)
// GCC 12's AVX-512 intrinsics build their "undefined" vectors by
// self-initialisation, which -W(maybe-)uninitialized reports at every
// inlined use; the warnings are in the header, so mute them there.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <algorithm>
#include <cstring>

namespace bpar::kernels::detail {
namespace {

constexpr int kRowBlock = 4;  // activation rows per register tile
constexpr std::size_t kGroupBytes = kPanelRows * kGroupK;

__mmask16 first_lanes(int count) {
  return count >= 16 ? __mmask16{0xFFFF}
                     : static_cast<__mmask16>((1U << count) - 1U);
}

float row_max_abs(const float* src, int n) {
  __m512 mx = _mm512_setzero_ps();
  for (int j = 0; j < n; j += 16) {
    const __m512 v = _mm512_maskz_loadu_ps(first_lanes(n - j), src + j);
    // max_ps returns its second operand when the first is NaN, so NaN is
    // skipped exactly as std::max(mx, |x|) skips it in the reference.
    mx = _mm512_max_ps(_mm512_abs_ps(v), mx);
  }
  __m256 m8 = _mm256_max_ps(_mm512_castps512_ps256(mx),
                            _mm512_extractf32x8_ps(mx, 1));
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m8),
                         _mm256_extractf128_ps(m8, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  return _mm_cvtss_f32(m4);
}

/// Quantizes one activation row into `dst` (n values) and returns the sum
/// of the quantized values. Same arithmetic as the reference: x * (1 /
/// scale), round half to even, clamp to ±127.
std::int32_t quantize_row(const float* src, int n, float scale,
                          std::int8_t* dst) {
  if (scale == 0.0F) {
    std::fill_n(dst, n, std::int8_t{0});
    return 0;
  }
  const __m512 inv = _mm512_set1_ps(1.0F / scale);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  __m512i sum = _mm512_setzero_si512();
  for (int j = 0; j < n; j += 16) {
    const __mmask16 lanes = first_lanes(n - j);
    const __m512 v =
        _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, src + j), inv);
    const __m512 r = _mm512_roundscale_ps(
        v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m512i q =
        _mm512_min_epi32(_mm512_max_epi32(_mm512_cvtps_epi32(r), lo), hi);
    sum = _mm512_add_epi32(sum, q);  // masked-off lanes loaded 0
    _mm512_mask_cvtepi32_storeu_epi8(dst + j, lanes, q);
  }
  const __m256i s8 = _mm256_add_epi32(_mm512_castsi512_si256(sum),
                                      _mm512_extracti64x4_epi64(sum, 1));
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(s8),
                            _mm256_extracti128_si256(s8, 1));
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
  return _mm_cvtsi128_si32(s);
}

/// Register tile: MR activation rows x NP panels of 16 output columns,
/// accumulated over `groups` k-groups. `a` rows are `lda` bytes apart;
/// `b` points at the tile's first group, panels `panel_bytes` apart.
template <int MR, int NP>
void dot_tile(const std::int8_t* a, std::size_t lda, const std::uint8_t* b,
              std::size_t panel_bytes, int groups, __m512i (&acc)[MR][NP]) {
  for (int r = 0; r < MR; ++r) {
    for (int q = 0; q < NP; ++q) acc[r][q] = _mm512_setzero_si512();
  }
  for (int g = 0; g < groups; ++g) {
    __m512i w[NP];
    for (int q = 0; q < NP; ++q) {
      w[q] = _mm512_loadu_si512(b + q * panel_bytes + g * kGroupBytes);
    }
    for (int r = 0; r < MR; ++r) {
      std::int32_t four = 0;
      std::memcpy(&four, a + r * lda + static_cast<std::size_t>(g) * kGroupK,
                  sizeof four);
      const __m512i av = _mm512_set1_epi32(four);
      for (int q = 0; q < NP; ++q) {
        acc[r][q] = _mm512_dpbusd_epi32(acc[r][q], w[q], av);
      }
    }
  }
}

struct Activations {
  const std::int8_t* q = nullptr;  // rows padded to whole k-groups
  std::size_t lda = 0;
  const float* scale = nullptr;
  const std::int32_t* sum = nullptr;
};

/// c(i0.., j0..) += the dequantized tile, exactly as the reference loop:
/// rows with a zero scale and columns with a zero scale are left alone,
/// every other element gets c + (sa * sb) * float(dot).
template <int MR, int NP>
void tile(const Activations& act, int i0, const QuantView& b, int j0,
          const std::uint8_t* bp, std::size_t panel_bytes, int groups,
          tensor::MatrixView c) {
  __m512i acc[MR][NP];
  dot_tile<MR, NP>(act.q + static_cast<std::size_t>(i0) * act.lda, act.lda,
                   bp, panel_bytes, groups, acc);
  for (int r = 0; r < MR; ++r) {
    const float sa = act.scale[i0 + r];
    if (sa == 0.0F) continue;
    const __m512i offset = _mm512_set1_epi32(128 * act.sum[i0 + r]);
    float* crow = c.row(i0 + r).data();
    for (int q = 0; q < NP; ++q) {
      const int j = j0 + q * kPanelRows;
      const __mmask16 lanes = first_lanes(c.cols - j);
      const __m512 sb = _mm512_maskz_loadu_ps(lanes, b.scales + j);
      const __mmask16 live =
          _mm512_mask_cmp_ps_mask(lanes, sb, _mm512_setzero_ps(), _CMP_NEQ_UQ);
      const __m512 dot =
          _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r][q], offset));
      const __m512 prod =
          _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(sa), sb), dot);
      const __m512 cv = _mm512_maskz_loadu_ps(live, crow + j);
      _mm512_mask_storeu_ps(crow + j, live, _mm512_add_ps(cv, prod));
    }
  }
}

template <int NP>
void row_blocks(const Activations& act, const QuantView& b, int j0,
                const std::uint8_t* bp, std::size_t panel_bytes, int groups,
                tensor::MatrixView c) {
  const int m = c.rows;
  int i = 0;
  for (; i + kRowBlock <= m; i += kRowBlock) {
    tile<kRowBlock, NP>(act, i, b, j0, bp, panel_bytes, groups, c);
  }
  switch (m - i) {
    case 3: tile<3, NP>(act, i, b, j0, bp, panel_bytes, groups, c); break;
    case 2: tile<2, NP>(act, i, b, j0, bp, panel_bytes, groups, c); break;
    case 1: tile<1, NP>(act, i, b, j0, bp, panel_bytes, groups, c); break;
    default: break;
  }
}

}  // namespace

void qgemm_nt_vnni(tensor::ConstMatrixView a, const QuantView& b,
                   tensor::MatrixView c) {
  if (b.row0 % kPanelRows != 0) {
    qgemm_nt_reference(a, b, c);
    return;
  }
  const int m = a.rows;
  const int n = c.cols;
  const int k = a.cols;
  // The view may start inside a k-group: its activations start `lead`
  // bytes into their first group, and the zeros before them cancel the
  // weight columns that belong to the neighbouring block.
  const int lead = b.col0 % kGroupK;
  const int groups = (lead + k + kGroupK - 1) / kGroupK;
  const std::size_t lda = static_cast<std::size_t>(groups) * kGroupK;

  thread_local std::vector<std::int8_t> aq;
  thread_local std::vector<float> ascale;
  thread_local std::vector<std::int32_t> asum;
  aq.assign(static_cast<std::size_t>(m) * lda, std::int8_t{0});
  ascale.resize(static_cast<std::size_t>(m));
  asum.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const float* src = a.row(i).data();
    const float scale = scale_for(row_max_abs(src, k));
    const auto u = static_cast<std::size_t>(i);
    ascale[u] = scale;
    asum[u] = quantize_row(src, k, scale, aq.data() + u * lda + lead);
  }
  const Activations act{aq.data(), lda, ascale.data(), asum.data()};

  const std::size_t panel_bytes =
      static_cast<std::size_t>(b.groups) * kGroupBytes;
  const std::uint8_t* first =
      b.panels + b.offset(b.row0, b.col0 - lead);
  int j = 0;
  for (; j + kPanelRows < n; j += 2 * kPanelRows) {
    row_blocks<2>(act, b, j, first + (j / kPanelRows) * panel_bytes,
                  panel_bytes, groups, c);
  }
  if (j < n) {
    row_blocks<1>(act, b, j, first + (j / kPanelRows) * panel_bytes,
                  panel_bytes, groups, c);
  }
}

}  // namespace bpar::kernels::detail
#endif
