// AVX2/FMA dense-layer kernels.  This translation unit is the only one built
// with -mavx2 -mfma (see src/nn/CMakeLists.txt); the table's tanh pass lives
// in simd_avx2_tanh.cpp, built without FMA.  Everything else stays at the
// baseline ISA and reaches these through the simd::active() dispatch table,
// which only selects this table after __builtin_cpu_supports() confirms the
// running CPU has both features.
//
// Accumulation-order note: the forward kernel reduces each dot product in
// four interleaved lanes, so its rounding differs from the scalar fallback
// (the SIMD parity tests pin the tolerance).  The two accumulate kernels
// (backward-input, param-grad-tangent) are register tiles that span several
// samples, but each output element still takes one FMA per term in the
// scalar loops' order and differs from them only by FMA contraction; its
// bits depend on its own row alone, never on the rows tiled with it.
#include "nn/simd.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

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

// The tiles keep R rows of sums in arrays indexed by r.  GCC holds such an
// array in registers only when every loop over r is fully unrolled, hence
// `#pragma GCC unroll 4` on each; without it the sums live on the stack and
// a tile runs slower than the row loop it replaced.

/// Calls fn(std::integral_constant<std::size_t, R>{}, k) for each block
/// [k, k + R) of [0, count): R = 4 over the full blocks, then R = count % 4
/// once for the rest, so a remainder runs the same tile with fewer rows.
template <class Fn>
void in_blocks_of_4(std::size_t count, Fn&& fn) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) fn(std::integral_constant<std::size_t, 4>{}, k);
  switch (count - k) {
    case 3: fn(std::integral_constant<std::size_t, 3>{}, k); break;
    case 2: fn(std::integral_constant<std::size_t, 2>{}, k); break;
    case 1: fn(std::integral_constant<std::size_t, 1>{}, k); break;
    default: break;
  }
}

/// R rows of dense_backward_input: zbar and ybar point at the tile's first
/// row.  Each tile of 8 (then 4) inputs holds R x 8 sums in registers and
/// walks o in ascending order, loading W[o, i..] once for all R rows.  Every
/// element is fma(zbar[s,o], W[o,i], acc) over ascending o from +0, as in
/// the row loop, so no bit depends on R.
template <std::size_t R>
void backward_input_tile(const double* w, const double* zbar, std::size_t in,
                         std::size_t out, double* ybar) {
  std::size_t i = 0;
  for (; i + 8 <= in; i += 8) {
    __m256d lo[R];
    __m256d hi[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) lo[r] = hi[r] = _mm256_setzero_pd();
    for (std::size_t o = 0; o < out; ++o) {
      const __m256d w_lo = _mm256_loadu_pd(w + o * in + i);
      const __m256d w_hi = _mm256_loadu_pd(w + o * in + i + 4);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d zv = _mm256_set1_pd(zbar[r * out + o]);
        lo[r] = _mm256_fmadd_pd(zv, w_lo, lo[r]);
        hi[r] = _mm256_fmadd_pd(zv, w_hi, hi[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_pd(ybar + r * in + i, lo[r]);
      _mm256_storeu_pd(ybar + r * in + i + 4, hi[r]);
    }
  }
  if (i + 4 <= in) {
    __m256d acc[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
    for (std::size_t o = 0; o < out; ++o) {
      const __m256d wv = _mm256_loadu_pd(w + o * in + i);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_pd(_mm256_set1_pd(zbar[r * out + o]), wv, acc[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) _mm256_storeu_pd(ybar + r * in + i, acc[r]);
    i += 4;
  }
  for (; i < in; ++i) {
    double acc[R] = {};
    for (std::size_t o = 0; o < out; ++o) {
      const double wv = w[o * in + i];
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) acc[r] += zbar[r * out + o] * wv;
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) ybar[r * in + i] = acc[r];
  }
}

void avx2_dense_backward_input(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar) {
  in_blocks_of_4(batch, [&](auto rows, std::size_t s) {
    backward_input_tile<decltype(rows)::value>(w, zbar + s * out, in, out,
                                               ybar + s * in);
  });
}

/// Samples per dense_param_grad_tangent block.  Every register tile of a
/// block re-reads the block's x and xdot rows, so the block keeps them in
/// cache; an unblocked batch re-streams them from memory for every tile.
constexpr std::size_t kTangentSampleBlock = 64;

/// R output rows of dense_param_grad_tangent over one sample block: x and
/// xdot point at the block's first sample, zbar and zbardot at its first
/// sample's column o, whvp at row o.  Each tile of 8 (then 4) inputs loads
/// R x 8 sums from whvp, applies w = fma(z, xd, fma(zd, x, w)) per sample
/// in ascending order, and stores them back, so every element follows the
/// row loop's order.
template <std::size_t R>
void param_grad_tangent_tile(const double* x, const double* xdot,
                             const double* zbar, const double* zbardot,
                             std::size_t samples, std::size_t in,
                             std::size_t out, double* whvp) {
  std::size_t i = 0;
  for (; i + 8 <= in; i += 8) {
    __m256d lo[R];
    __m256d hi[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      lo[r] = _mm256_loadu_pd(whvp + r * in + i);
      hi[r] = _mm256_loadu_pd(whvp + r * in + i + 4);
    }
    for (std::size_t s = 0; s < samples; ++s) {
      const __m256d x_lo = _mm256_loadu_pd(x + s * in + i);
      const __m256d x_hi = _mm256_loadu_pd(x + s * in + i + 4);
      const __m256d xd_lo = _mm256_loadu_pd(xdot + s * in + i);
      const __m256d xd_hi = _mm256_loadu_pd(xdot + s * in + i + 4);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d zdv = _mm256_set1_pd(zbardot[s * out + r]);
        const __m256d zv = _mm256_set1_pd(zbar[s * out + r]);
        lo[r] = _mm256_fmadd_pd(zv, xd_lo, _mm256_fmadd_pd(zdv, x_lo, lo[r]));
        hi[r] = _mm256_fmadd_pd(zv, xd_hi, _mm256_fmadd_pd(zdv, x_hi, hi[r]));
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_pd(whvp + r * in + i, lo[r]);
      _mm256_storeu_pd(whvp + r * in + i + 4, hi[r]);
    }
  }
  if (i + 4 <= in) {
    __m256d acc[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_loadu_pd(whvp + r * in + i);
    for (std::size_t s = 0; s < samples; ++s) {
      const __m256d xv = _mm256_loadu_pd(x + s * in + i);
      const __m256d xdv = _mm256_loadu_pd(xdot + s * in + i);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d zdv = _mm256_set1_pd(zbardot[s * out + r]);
        const __m256d zv = _mm256_set1_pd(zbar[s * out + r]);
        acc[r] = _mm256_fmadd_pd(zv, xdv, _mm256_fmadd_pd(zdv, xv, acc[r]));
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) _mm256_storeu_pd(whvp + r * in + i, acc[r]);
    i += 4;
  }
  if (i == in) return;
  // The row loop's scalar tail, expression for expression, so it contracts
  // into the same FMAs.
  const std::size_t tail = i;
  for (std::size_t s = 0; s < samples; ++s) {
    const double* xs = x + s * in;
    const double* xds = xdot + s * in;
    for (std::size_t r = 0; r < R; ++r) {
      const double zd = zbardot[s * out + r];
      const double z = zbar[s * out + r];
      double* wrow = whvp + r * in;
      for (i = tail; i < in; ++i) wrow[i] += zd * xs[i] + z * xds[i];
    }
  }
}

void avx2_dense_param_grad_tangent(const double* x, const double* xdot,
                                   const double* zbar, const double* zbardot,
                                   std::size_t batch, std::size_t in,
                                   std::size_t out, double* whvp, double* bhvp) {
  for (std::size_t s0 = 0; s0 < batch; s0 += kTangentSampleBlock) {
    const std::size_t samples = std::min(kTangentSampleBlock, batch - s0);
    in_blocks_of_4(out, [&](auto rows, std::size_t o) {
      param_grad_tangent_tile<decltype(rows)::value>(
          x + s0 * in, xdot + s0 * in, zbar + s0 * out + o,
          zbardot + s0 * out + o, samples, in, out, whvp + o * in);
    });
  }
  for (std::size_t s = 0; s < batch; ++s) {
    const double* zdrow = zbardot + s * out;
    for (std::size_t o = 0; o < out; ++o) bhvp[o] += zdrow[o];
  }
}

constexpr Ops kAvx2Ops = {avx2_dense_forward, avx2_dense_backward_input,
                          avx2_dense_param_grad_tangent, avx2_tanh, "avx2-fma"};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace dpho::nn::simd

#endif  // DPHO_SIMD_AVX2
