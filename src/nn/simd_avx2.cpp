// AVX2/FMA dense-layer kernels.  This translation unit is the only one built
// with -mavx2 -mfma (see src/nn/CMakeLists.txt), with contraction off: every
// FMA below is written out, the scalar tails' included.  The table's tanh
// pass lives in simd_avx2_tanh.cpp, built without FMA.  Everything else
// stays at the baseline ISA and reaches these through the simd::active()
// dispatch table, which only selects this table after
// __builtin_cpu_supports() confirms the running CPU has both features.
//
// The kernels are register tiles that span several samples, but each output
// element takes one FMA per term in the order simd.hpp specifies, so it
// has the scalar table's bits and never depends on the rows tiled with it.
#include "nn/simd.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "nn/simd_tanh_core.hpp"

namespace dpho::nn::simd {

namespace {

// The tiles keep R rows of sums in arrays indexed by r.  GCC holds such an
// array in registers only when every loop over r is fully unrolled, hence
// `#pragma GCC unroll 4` on each; without it the sums live on the stack and
// a tile runs slower than a row loop.

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

/// R rows of the chain
///   c[r, j] = fma(a[r, K-1], m[K-1, j], ... fma(a[r, 0], m[0, j], init[j]))
/// from +0 when init is null: a and c point at the tile's first row, a has
/// rows of k_count values, m and c rows of j_count.  Each block of 8 (then
/// 4) columns holds R x 8 sums in registers and walks k in ascending order,
/// loading m[k, j..] once for all R rows; the last j_count % 4 columns run
/// the same chain through std::fma.  dense_forward runs it over wt (k = i,
/// j = o) and dense_backward_input over w (k = o, j = i).
template <std::size_t R>
void chain_tile(const double* m, const double* a, const double* init,
                std::size_t k_count, std::size_t j_count, double* c) {
  std::size_t j = 0;
  for (; j + 8 <= j_count; j += 8) {
    const __m256d start_lo =
        init != nullptr ? _mm256_loadu_pd(init + j) : _mm256_setzero_pd();
    const __m256d start_hi =
        init != nullptr ? _mm256_loadu_pd(init + j + 4) : _mm256_setzero_pd();
    __m256d lo[R];
    __m256d hi[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      lo[r] = start_lo;
      hi[r] = start_hi;
    }
    for (std::size_t k = 0; k < k_count; ++k) {
      const __m256d m_lo = _mm256_loadu_pd(m + k * j_count + j);
      const __m256d m_hi = _mm256_loadu_pd(m + k * j_count + j + 4);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d av = _mm256_set1_pd(a[r * k_count + k]);
        lo[r] = _mm256_fmadd_pd(av, m_lo, lo[r]);
        hi[r] = _mm256_fmadd_pd(av, m_hi, hi[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_pd(c + r * j_count + j, lo[r]);
      _mm256_storeu_pd(c + r * j_count + j + 4, hi[r]);
    }
  }
  if (j + 4 <= j_count) {
    const __m256d start =
        init != nullptr ? _mm256_loadu_pd(init + j) : _mm256_setzero_pd();
    __m256d acc[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = start;
    for (std::size_t k = 0; k < k_count; ++k) {
      const __m256d mv = _mm256_loadu_pd(m + k * j_count + j);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_pd(_mm256_set1_pd(a[r * k_count + k]), mv, acc[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) _mm256_storeu_pd(c + r * j_count + j, acc[r]);
    j += 4;
  }
  for (; j < j_count; ++j) {
    double acc[R];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) acc[r] = init != nullptr ? init[j] : 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      const double mv = m[k * j_count + j];
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = std::fma(a[r * k_count + k], mv, acc[r]);
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) c[r * j_count + j] = acc[r];
  }
}

void avx2_dense_forward(const double* wt, const double* bias, const double* x,
                        std::size_t batch, std::size_t in, std::size_t out,
                        double* z) {
  in_blocks_of_4(batch, [&](auto rows, std::size_t s) {
    chain_tile<decltype(rows)::value>(wt, x + s * in, bias, in, out, z + s * out);
  });
}

void avx2_dense_backward_input(const double* w, const double* zbar,
                               std::size_t batch, std::size_t in,
                               std::size_t out, double* ybar) {
  in_blocks_of_4(batch, [&](auto rows, std::size_t s) {
    chain_tile<decltype(rows)::value>(w, zbar + s * out, nullptr, out, in,
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
/// in ascending order, and stores them back; the last in % 4 inputs run
/// the same chain through std::fma.
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
  const std::size_t tail = i;
  for (std::size_t s = 0; s < samples && tail < in; ++s) {
    const double* xs = x + s * in;
    const double* xds = xdot + s * in;
    for (std::size_t r = 0; r < R; ++r) {
      const double zd = zbardot[s * out + r];
      const double z = zbar[s * out + r];
      double* wrow = whvp + r * in;
      for (i = tail; i < in; ++i) {
        wrow[i] = std::fma(z, xds[i], std::fma(zd, xs[i], wrow[i]));
      }
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
