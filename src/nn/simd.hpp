// Runtime-dispatched primitives for the batched MLP kernels.
//
// Every hot loop in nn/mlp_kernels.cpp is one of three dense operations
// over sample-major SoA batches, or the tanh activation pass.  This header
// exposes them behind a function table that is resolved once at first use,
// to the best of three levels the running CPU can run:
//
//   * an AVX-512 table when the CPU reports AVX-512F: 8-sample x 16-column
//     dense tiles in src/nn/simd_avx512.cpp and the tanh pass in
//     src/nn/simd_avx512_tanh.cpp (both -mavx512f),
//   * an AVX2 table when the CPU reports AVX2 and FMA: 4-sample x 8-column
//     dense tiles in src/nn/simd_avx2.cpp (-mavx2 -mfma) and the tanh pass
//     in src/nn/simd_avx2_tanh.cpp (-mavx2 only), and
//   * a portable scalar table of plain loops over std::fma.
//
// Both vector tables are compiled when DPHO_ENABLE_SIMD is ON; the
// DPHO_ENABLE_SIMD=OFF build (the simd-off preset) compiles the scalar
// table alone.  set_enabled() flips between the best vector table and the
// scalar one at runtime (perfbench's SIMD-off runs); select() picks any
// level, which is how the tests drive every table in one process.
//
// Determinism: every dense output element is one FMA chain over its terms
// in ascending order, from its bias, its accumulator or +0 (see each Ops
// entry).  A correctly rounded FMA chain's bits depend on neither the
// vector width nor the tile shape, so the three tables agree bit for bit
// on every dense operation: the vector tables run register tiles over
// several samples with every FMA written out (their TUs build with
// -ffp-contract=off), and the scalar table runs the same chains through
// std::fma.  The tanh pass runs one core in every table with the same
// operations in the same order and no FMA, so it agrees bit for bit as
// well.  A value therefore never depends on the table, the batch it sits
// in, its position there or the thread count: dispatch state is
// process-global and the kernels carry no per-thread state.
#pragma once

#include <cstddef>

namespace dpho::nn::simd {

/// The operation table one dispatch level provides.  All batches are
/// sample-major: x is batch rows of `in` values, z is batch rows of `out`
/// values.  W is [out][in] row-major as in Mlp::params(), and wt the same
/// weights input-major, [in][out], as in Mlp::packed_weights().
struct Ops {
  /// z[s,o] = bias[o] + sum_i wt[i,o] x[s,i]: from bias[o], or +0 when bias
  /// is null, one fma(x[s,i], wt[i,o], acc) per i in ascending order
  void (*dense_forward)(const double* wt, const double* bias, const double* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        double* z);
  /// ybar[s,i] = sum_o w[o,i] zbar[s,o] (overwrites ybar): from +0, one
  /// fma(zbar[s,o], w[o,i], acc) per o in ascending order
  void (*dense_backward_input)(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar);
  /// whvp[o,i] += sum_s (zbardot[s,o] x[s,i] + zbar[s,o] xdot[s,i]), the
  /// d/de of the parameter gradient sum_s zbar[s,o] x[s,i]: per s in
  /// ascending order, w = fma(zbar, xdot, fma(zbardot, x, w)).  bhvp[o] +=
  /// zbardot[s,o], added over ascending s.
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
  const char* name;  // "avx512f", "avx2-fma" or "scalar"
};

/// The dispatch levels, worst to best.
enum class Level { kScalar, kAvx2, kAvx512 };

/// The currently dispatched table (resolved lazily on first call).
const Ops& active();

/// The table of `level`, or nullptr when this build did not compile it or
/// the running CPU cannot run it.  table(Level::kScalar) is never null.
const Ops* table(Level level);

/// Makes table(level) the active table.  Returns false, and changes
/// nothing, when that table is null.  Not intended for use while kernels
/// are running on other threads.
bool select(Level level);

/// True when some vector table is compiled in AND the running CPU supports
/// it (independent of whether it is currently enabled).
bool available();

/// True when the active table is a vector one.
bool enabled();

/// Force the best vector table the CPU can run (true) or the scalar one
/// (false).  Enabling is a no-op when available() is false; returns the
/// resulting enabled() state.  Not intended for use while kernels are
/// running on other threads.
bool set_enabled(bool on);

/// Name of the active table ("avx512f" / "avx2-fma" / "scalar").
const char* level_name();

/// The scalar table (always present; the parity oracle).
const Ops& scalar_ops();

}  // namespace dpho::nn::simd
