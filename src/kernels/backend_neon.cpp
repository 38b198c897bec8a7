// NEON (aarch64) kernel backend. NEON is architecturally guaranteed on
// AArch64, so no runtime feature check is needed — the whole TU is simply
// empty on other architectures.
#include "kernels/backend.hpp"

#if defined(__aarch64__)
#define BPAR_HAVE_NEON_BACKEND 1
#include <arm_neon.h>

#include "kernels/simd_kernels.hpp"
#endif

namespace bpar::kernels {

#if BPAR_HAVE_NEON_BACKEND
namespace {

struct NeonVec {
  using reg = float32x4_t;
  static constexpr int kWidth = 4;

  static reg loadu(const float* p) { return vld1q_f32(p); }
  static void storeu(float* p, reg v) { vst1q_f32(p, v); }
  static reg set1(float v) { return vdupq_n_f32(v); }
  static reg zero() { return vdupq_n_f32(0.0F); }
  static reg add(reg a, reg b) { return vaddq_f32(a, b); }
  static reg sub(reg a, reg b) { return vsubq_f32(a, b); }
  static reg mul(reg a, reg b) { return vmulq_f32(a, b); }
  static reg div(reg a, reg b) { return vdivq_f32(a, b); }
  static reg fma(reg a, reg b, reg c) { return vfmaq_f32(c, a, b); }
  static reg min(reg a, reg b) { return vminq_f32(a, b); }
  static reg max(reg a, reg b) { return vmaxq_f32(a, b); }
  static reg round_nearest(reg v) { return vrndnq_f32(v); }
  static reg scale_by_pow2(reg x, reg n) {
    const int32x4_t ni = vcvtq_s32_f32(n);
    const int32x4_t pow2 = vshlq_n_s32(vaddq_s32(ni, vdupq_n_s32(127)), 23);
    return vmulq_f32(x, vreinterpretq_f32_s32(pow2));
  }
  static float hsum(reg v) { return vaddvq_f32(v); }
};

}  // namespace
#endif  // BPAR_HAVE_NEON_BACKEND

const Backend* neon_backend() {
#if BPAR_HAVE_NEON_BACKEND
  static const Backend table = simd::SimdKernels<NeonVec>::make_backend("neon");
  return &table;
#else
  return nullptr;
#endif
}

}  // namespace bpar::kernels
