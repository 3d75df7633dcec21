// The row loops the AVX2 dense tiles replaced, kept as their bitwise
// reference (simd_row_reference.cpp).  Same signatures as the simd::Ops
// entries they mirror.
#pragma once

#include <cstddef>

namespace dpho::nn::simd::reference {

struct RowKernels {
  void (*dense_backward_input)(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar);
  void (*dense_param_grad_tangent)(const double* x, const double* xdot,
                                   const double* zbar, const double* zbardot,
                                   std::size_t batch, std::size_t in,
                                   std::size_t out, double* whvp, double* bhvp);
};

/// The AVX2 row loops, or nullptr when the build has no AVX2/FMA table.
/// Callers must also check simd::available() before running them.
const RowKernels* avx2_row_kernels();

}  // namespace dpho::nn::simd::reference
