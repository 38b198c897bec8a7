// Runtime-dispatched kernel backends (DESIGN.md §5g).
//
// Every hot numeric kernel — the three GEMM variants, gemv_t, the fused
// pointwise/activation chains, and the int8 GEMM core of the quantized
// inference path — is reached through a `Backend` function-pointer table.
// The table is selected exactly once, at first use, by cpuid feature
// detection (AVX-512 > AVX2 > NEON > scalar), and can be overridden with
// the BPAR_KERNEL_BACKEND environment variable or set_backend() (the
// `--backend` flag of the tools) for A/B runs and CI determinism.
//
// The scalar backend is the bit-reference: every SIMD backend is pinned
// against it by the parity suite in tests/test_kernels.cpp. SIMD GEMMs
// reassociate additions and the vectorized activations use a polynomial
// exp, so parity is tolerance-pinned, not bit-exact — but each backend is
// deterministic run-to-run, which is what the executor/serving bit-exact
// replay tests rely on. The int8 GEMM is the exception: it is bitwise
// equal to scalar on every backend.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace bpar::kernels {

struct QuantView;  // kernels/quant.hpp

struct Backend {
  const char* name = "";
  /// Floats per SIMD register (1 for scalar) — informational only.
  int simd_width = 1;

  // GEMM family; semantics identical to the public kernels in gemm.hpp.
  // Shapes are validated by the public dispatchers, never here.
  void (*gemm_nn)(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                  tensor::MatrixView c, float alpha, float beta) = nullptr;
  void (*gemm_nt)(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                  tensor::MatrixView c, float alpha, float beta) = nullptr;
  void (*gemm_tn)(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                  tensor::MatrixView c, float alpha, float beta) = nullptr;
  void (*gemv_t)(tensor::ConstMatrixView a, std::span<const float> x,
                 std::span<float> y, float alpha, float beta) = nullptr;

  // Fused pointwise/activation kernels (the LSTM/GRU cell chains).
  void (*sigmoid_inplace)(std::span<float> v) = nullptr;
  void (*tanh_inplace)(std::span<float> v) = nullptr;
  void (*hadamard)(std::span<const float> a, std::span<const float> b,
                   std::span<float> dst) = nullptr;
  void (*hadamard_acc)(std::span<const float> a, std::span<const float> b,
                       std::span<float> dst) = nullptr;
  void (*axpy)(float s, std::span<const float> src,
               std::span<float> dst) = nullptr;

  /// C += dequant(Aq · Bq^T), the core of kernels::qgemm_nt
  /// (kernels/quant.hpp), which has validated shapes and applied beta.
  /// Accumulation is exact (int32) and the epilogue is never contracted,
  /// so this IS bitwise equal across backends.
  void (*qgemm_nt)(tensor::ConstMatrixView a, const QuantView& b,
                   tensor::MatrixView c) = nullptr;
};

/// The scalar reference backend — always available, golden for parity.
[[nodiscard]] const Backend& scalar_backend();

/// ISA backends; nullptr when not compiled in or not supported by the
/// running CPU (checked via cpuid at first call).
[[nodiscard]] const Backend* avx2_backend();
[[nodiscard]] const Backend* avx512_backend();
[[nodiscard]] const Backend* neon_backend();

/// Best backend the running CPU supports (never null; scalar fallback).
[[nodiscard]] const Backend& native_backend();

/// Every backend usable on this machine, scalar first.
[[nodiscard]] std::vector<const Backend*> available_backends();

/// `name` in {"scalar", "avx2", "avx512", "neon", "native"} → the matching
/// backend, or nullptr when unknown/unsupported here.
[[nodiscard]] const Backend* backend_by_name(std::string_view name);

/// The table the public kernels dispatch through. First call resolves
/// BPAR_KERNEL_BACKEND (unknown/unsupported values warn and fall back to
/// native); later calls are a single relaxed atomic load.
[[nodiscard]] const Backend& active_backend();
[[nodiscard]] const char* active_backend_name();

/// Switches the active backend. Returns false (and changes nothing) when
/// the name is unknown or unsupported on this CPU. Not meant to race with
/// in-flight kernels — call it at startup or between runs (tools, tests).
bool set_backend(std::string_view name);
/// Switches to a caller-built table, e.g. native with one kernel swapped
/// for the scalar one, to isolate that kernel in an end-to-end A/B. The
/// table must outlive every kernel call made through it.
void set_backend(const Backend& backend);

}  // namespace bpar::kernels
