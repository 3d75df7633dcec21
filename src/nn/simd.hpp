// Runtime-dispatched primitives for the batched MLP kernels.
//
// Every hot loop in nn/mlp_kernels.cpp is one of three dense operations
// over sample-major SoA batches, or the tanh activation pass.  This header
// exposes them behind a function table that is resolved once at first use:
//
//   * an AVX2 implementation selected when the running CPU reports AVX2 and
//     FMA: the dense operations in src/nn/simd_avx2.cpp (-mavx2 -mfma) and
//     the tanh pass in src/nn/simd_avx2_tanh.cpp (-mavx2 only), both
//     compiled when DPHO_ENABLE_SIMD is ON, and
//   * a portable scalar table of plain loops.
//
// Dispatch can be flipped at runtime with set_enabled() -- which is how the
// SIMD parity tests and perfbench's SIMD-off runs drive both paths in one
// process -- and the DPHO_ENABLE_SIMD=OFF build (the simd-off preset)
// compiles the scalar table alone.
//
// Determinism: the AVX2 forward kernel splits dot products across vector
// lanes, so its reduction order differs from scalar and results can differ
// from the scalar path by FMA-contraction-sized rounding (the parity tests
// pin the tolerance).  The AVX2 backward-input and param-grad-tangent
// kernels are register tiles over several samples, but each output element
// keeps the scalar loops' order of terms, so they differ from scalar by FMA
// contraction only and a row's bits never depend on the rows tiled with it.
// The tanh pass runs one core in both tables with the same operations in
// the same order and no FMA, so they agree bit for bit at every length and
// offset.  Within either table, results are bit-reproducible and
// independent of thread count: dispatch state is process-global and the
// kernels carry no per-thread state.
#pragma once

#include <cstddef>

namespace dpho::nn::simd {

/// The operation table one dispatch level provides.  All batches are
/// sample-major: x is batch rows of `in` values, z is batch rows of `out`
/// values, weights are row-major [out][in].
struct Ops {
  /// z[s,o] = (bias ? bias[o] : 0) + sum_i w[o,i] x[s,i]
  void (*dense_forward)(const double* w, const double* bias, const double* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        double* z);
  /// ybar[s,i] = sum_o w[o,i] zbar[s,o]   (overwrites ybar), each element
  /// summed over ascending o from +0
  void (*dense_backward_input)(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar);
  /// whvp[o,i] += sum_s (zbardot[s,o] x[s,i] + zbar[s,o] xdot[s,i]);
  /// bhvp[o] += sum_s zbardot[s,o], each element over ascending s (the d/de
  /// of the parameter gradient sum_s zbar[s,o] x[s,i])
  void (*dense_param_grad_tangent)(const double* x, const double* xdot,
                                   const double* zbar, const double* zbardot,
                                   std::size_t batch, std::size_t in,
                                   std::size_t out, double* whvp, double* bhvp);
  /// y[k] = tanh(z[k]), sp[k] = 1 - y[k]^2 and, when spp is non-null,
  /// spp[k] = -2 y[k] (1 - y[k]^2), for k < n.  tanh comes from one
  /// branch-free core (simd_tanh_core.hpp): at most 3 ulp from glibc's
  /// tanh, no libm call, tanh(+-0) = +-0, subnormals unchanged,
  /// tanh(+-inf) = +-1, NaN stays NaN.  Bit-identical across tables.
  void (*tanh)(const double* z, double* y, double* sp, double* spp,
               std::size_t n);
  const char* name;  // "avx2-fma" or "scalar"
};

/// The currently dispatched table (resolved lazily on first call).
const Ops& active();

/// True when an AVX2/FMA table was compiled in AND the running CPU supports
/// it (independent of whether it is currently enabled).
bool available();

/// True when the active table is the vector one.
bool enabled();

/// Force the vector (true) or scalar (false) table.  Enabling is a no-op
/// when available() is false; returns the resulting enabled() state.  Not
/// intended for use while kernels are running on other threads.
bool set_enabled(bool on);

/// Name of the active table ("avx2-fma" / "scalar").
const char* level_name();

/// The scalar table (always present; the parity oracle).
const Ops& scalar_ops();

/// The AVX2 table, or nullptr when not compiled in (DPHO_ENABLE_SIMD=OFF).
/// Internal to the dispatcher and the tests; callers must check the CPU via
/// available() before using it.
const Ops* avx2_ops();

}  // namespace dpho::nn::simd
