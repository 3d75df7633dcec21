// AVX2/FMA dense-layer kernels.  This translation unit is the only one built
// with -mavx2 -mfma (see src/nn/CMakeLists.txt); the table's tanh pass lives
// in simd_avx2_tanh.cpp, built without FMA.  Everything else stays at the
// baseline ISA and reaches these through the simd::active() dispatch table,
// which only selects this table after __builtin_cpu_supports() confirms the
// running CPU has both features.
//
// Accumulation-order note: the forward kernel reduces each dot product in
// four interleaved lanes, so its rounding differs from the scalar fallback
// (the SIMD parity tests pin the tolerance).  The accumulate kernels
// (backward-input, param-grad, param-grad-tangent) keep the scalar loops'
// per-element accumulation order -- outer sample loop, inner contiguous i --
// and differ only by FMA contraction.
#include "nn/simd.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

#include "nn/simd_tanh_core.hpp"

namespace dpho::nn::simd {

namespace {

/// Horizontal sum of one 4-lane accumulator.
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_hadd_pd(pair, pair));
}

void avx2_dense_forward(const double* w, const double* bias, const double* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        double* z) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    double* zs = z + s * out;
    std::size_t o = 0;
    // Four output rows at a time share every x load; each row keeps its own
    // 4-lane accumulator, combined with the hadd/permute shuffle below.
    for (; o + 4 <= out; o += 4) {
      const double* w0 = w + (o + 0) * in;
      const double* w1 = w + (o + 1) * in;
      const double* w2 = w + (o + 2) * in;
      const double* w3 = w + (o + 3) * in;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      std::size_t i = 0;
      for (; i + 4 <= in; i += 4) {
        const __m256d xv = _mm256_loadu_pd(xs + i);
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(w0 + i), xv, acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(w1 + i), xv, acc1);
        acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(w2 + i), xv, acc2);
        acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(w3 + i), xv, acc3);
      }
      // [dot0, dot1, dot2, dot3] from the four lane-partial accumulators.
      const __m256d t01 = _mm256_hadd_pd(acc0, acc1);
      const __m256d t23 = _mm256_hadd_pd(acc2, acc3);
      const __m256d lo = _mm256_permute2f128_pd(t01, t23, 0x20);
      const __m256d hi = _mm256_permute2f128_pd(t01, t23, 0x31);
      __m256d sums = _mm256_add_pd(lo, hi);
      if (bias != nullptr) sums = _mm256_add_pd(sums, _mm256_loadu_pd(bias + o));
      double tail[4] = {0.0, 0.0, 0.0, 0.0};
      for (; i < in; ++i) {
        const double xi = xs[i];
        tail[0] += w0[i] * xi;
        tail[1] += w1[i] * xi;
        tail[2] += w2[i] * xi;
        tail[3] += w3[i] * xi;
      }
      _mm256_storeu_pd(zs + o, _mm256_add_pd(sums, _mm256_loadu_pd(tail)));
    }
    for (; o < out; ++o) {
      const double* wrow = w + o * in;
      __m256d acc = _mm256_setzero_pd();
      std::size_t i = 0;
      for (; i + 4 <= in; i += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(wrow + i),
                              _mm256_loadu_pd(xs + i), acc);
      }
      double sum = (bias != nullptr ? bias[o] : 0.0) + hsum(acc);
      for (; i < in; ++i) sum += wrow[i] * xs[i];
      zs[o] = sum;
    }
  }
}

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

void avx2_dense_param_grad(const double* x, const double* zbar,
                           std::size_t batch, std::size_t in, std::size_t out,
                           double* wgrad, double* bgrad) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    const double* zrow = zbar + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      const double z = zrow[o];
      bgrad[o] += z;
      if (z == 0.0) continue;
      double* wrow = wgrad + o * in;
      const __m256d zv = _mm256_set1_pd(z);
      std::size_t i = 0;
      for (; i + 4 <= in; i += 4) {
        const __m256d wv = _mm256_fmadd_pd(zv, _mm256_loadu_pd(xs + i),
                                           _mm256_loadu_pd(wrow + i));
        _mm256_storeu_pd(wrow + i, wv);
      }
      for (; i < in; ++i) wrow[i] += z * xs[i];
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

constexpr Ops kAvx2Ops = {avx2_dense_forward, avx2_dense_backward_input,
                          avx2_dense_param_grad, avx2_dense_param_grad_tangent,
                          avx2_tanh, "avx2-fma"};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace dpho::nn::simd

#endif  // DPHO_SIMD_AVX2
