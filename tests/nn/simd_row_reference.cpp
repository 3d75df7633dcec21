// The AVX2 table's dense_backward_input and dense_param_grad_tangent as the
// per-sample row loops that the register tiles in src/nn/simd_avx2.cpp
// replaced, copied verbatim.  They are the bitwise reference of
// simd_tile_test.cpp: a tile must reproduce them byte for byte.
//
// This file is built with -mavx2 -mfma under the same checks as
// simd_avx2.cpp (tests/CMakeLists.txt).  Built without -mfma its scalar
// tails would not contract into FMAs, and it would be a different
// reference.  Without those flags it compiles to avx2_row_kernels() ==
// nullptr and the tile test skips.
#include "simd_row_reference.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

namespace dpho::nn::simd::reference {

namespace {

void avx2_dense_backward_input(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* zrow = zbar + s * out;
    double* yrow = ybar + s * in;
    std::size_t i = 0;
    const __m256d zero = _mm256_setzero_pd();
    for (; i + 4 <= in; i += 4) _mm256_storeu_pd(yrow + i, zero);
    for (; i < in; ++i) yrow[i] = 0.0;
    for (std::size_t o = 0; o < out; ++o) {
      const double z = zrow[o];
      if (z == 0.0) continue;
      const double* wrow = w + o * in;
      const __m256d zv = _mm256_set1_pd(z);
      i = 0;
      for (; i + 4 <= in; i += 4) {
        const __m256d yv = _mm256_fmadd_pd(zv, _mm256_loadu_pd(wrow + i),
                                           _mm256_loadu_pd(yrow + i));
        _mm256_storeu_pd(yrow + i, yv);
      }
      for (; i < in; ++i) yrow[i] += z * wrow[i];
    }
  }
}

void avx2_dense_param_grad_tangent(const double* x, const double* xdot,
                                   const double* zbar, const double* zbardot,
                                   std::size_t batch, std::size_t in,
                                   std::size_t out, double* whvp, double* bhvp) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    const double* xds = xdot + s * in;
    const double* zdrow = zbardot + s * out;
    const double* zrow = zbar + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      const double zd = zdrow[o];
      const double z = zrow[o];
      bhvp[o] += zd;
      double* wrow = whvp + o * in;
      const __m256d zdv = _mm256_set1_pd(zd);
      const __m256d zv = _mm256_set1_pd(z);
      std::size_t i = 0;
      for (; i + 4 <= in; i += 4) {
        __m256d wv = _mm256_loadu_pd(wrow + i);
        wv = _mm256_fmadd_pd(zdv, _mm256_loadu_pd(xs + i), wv);
        wv = _mm256_fmadd_pd(zv, _mm256_loadu_pd(xds + i), wv);
        _mm256_storeu_pd(wrow + i, wv);
      }
      for (; i < in; ++i) wrow[i] += zd * xs[i] + z * xds[i];
    }
  }
}

constexpr RowKernels kRowKernels = {avx2_dense_backward_input,
                                    avx2_dense_param_grad_tangent};

}  // namespace

const RowKernels* avx2_row_kernels() { return &kRowKernels; }

}  // namespace dpho::nn::simd::reference

#else

const dpho::nn::simd::reference::RowKernels*
dpho::nn::simd::reference::avx2_row_kernels() {
  return nullptr;
}

#endif  // DPHO_SIMD_AVX2
