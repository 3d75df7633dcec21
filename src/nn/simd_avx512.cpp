// AVX-512F dense-layer kernels.  This translation unit is built with
// -mavx512f -ffp-contract=off (see src/nn/CMakeLists.txt): every FMA below
// is written out, and no a*b + c contracts behind the source's back.  The
// table's tanh pass lives in simd_avx512_tanh.cpp.  Everything else stays at
// the baseline ISA and reaches these through the simd::active() dispatch
// table, which only selects this table after __builtin_cpu_supports()
// confirms the running CPU has AVX-512F.
//
// The kernels are 8-row x 16-column register tiles whose column tails run
// as masked vectors.  Each output element takes one FMA per term in the
// order simd.hpp specifies, so it has the scalar table's bits and never
// depends on the rows tiled with it.
#include "nn/simd.hpp"

#if defined(DPHO_SIMD_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

#include "nn/simd_tanh_core.hpp"

namespace dpho::nn::simd {

namespace {

/// The first n lanes of an 8-lane vector, 0 < n <= 8.
inline __mmask8 first_lanes(std::size_t n) {
  return static_cast<__mmask8>(0xffu >> (8 - n));
}

/// Calls fn(std::integral_constant<std::size_t, R>{}, k) for each block
/// [k, k + R) of [0, count): R = 8 over the full blocks, then R = count % 8
/// once for the rest, so a remainder runs the same tile with fewer rows.
template <class Fn>
void in_blocks_of_8(std::size_t count, Fn&& fn) {
  std::size_t k = 0;
  for (; k + 8 <= count; k += 8) fn(std::integral_constant<std::size_t, 8>{}, k);
  switch (count - k) {
    case 7: fn(std::integral_constant<std::size_t, 7>{}, k); break;
    case 6: fn(std::integral_constant<std::size_t, 6>{}, k); break;
    case 5: fn(std::integral_constant<std::size_t, 5>{}, k); break;
    case 4: fn(std::integral_constant<std::size_t, 4>{}, k); break;
    case 3: fn(std::integral_constant<std::size_t, 3>{}, k); break;
    case 2: fn(std::integral_constant<std::size_t, 2>{}, k); break;
    case 1: fn(std::integral_constant<std::size_t, 1>{}, k); break;
    default: break;
  }
}

/// Calls block(std::integral_constant<std::size_t, V>{}, j, last) for each
/// block of [0, count) columns: V = 2 vectors (16 columns) over the full
/// blocks, then one block of V = 2 or 1 vectors whose last vector keeps
/// only the lanes `last` marks.
template <class Block>
void in_column_blocks(std::size_t count, Block&& block) {
  std::size_t j = 0;
  for (; j + 16 <= count; j += 16) {
    block(std::integral_constant<std::size_t, 2>{}, j, __mmask8{0xff});
  }
  const std::size_t rest = count - j;
  if (rest > 8) {
    block(std::integral_constant<std::size_t, 2>{}, j, first_lanes(rest - 8));
  } else if (rest > 0) {
    block(std::integral_constant<std::size_t, 1>{}, j, first_lanes(rest));
  }
}

// The tiles keep R x V sums in arrays indexed by r and v.  GCC holds such
// an array in registers only when every loop over r and v is fully
// unrolled, hence the `#pragma GCC unroll` on each.

/// Columns [j, j + 8 V) of R rows of the chain
///   c[r, j] = fma(a[r, K-1], m[K-1, j], ... fma(a[r, 0], m[0, j], init[j]))
/// from +0 when init is null: a and c point at the tile's first row, a has
/// rows of k_count values, m and c rows of j_count; `last` masks the lanes
/// of the final vector.  The sums walk k in ascending order, loading
/// m[k, j..] once for all R rows.  dense_forward runs it over wt (k = i,
/// j = o) and dense_backward_input over w (k = o, j = i).
template <std::size_t R, std::size_t V>
inline void chain_block(const double* m, const double* a, const double* init,
                        std::size_t k_count, std::size_t j_count, std::size_t j,
                        __mmask8 last, double* c) {
  __mmask8 mask[V];
  __m512d acc[R][V];
  #pragma GCC unroll 2
  for (std::size_t v = 0; v < V; ++v) {
    mask[v] = v + 1 < V ? __mmask8{0xff} : last;
    const __m512d start = init != nullptr
                              ? _mm512_maskz_loadu_pd(mask[v], init + j + 8 * v)
                              : _mm512_setzero_pd();
    #pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) acc[r][v] = start;
  }
  for (std::size_t k = 0; k < k_count; ++k) {
    __m512d mv[V];
    #pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      mv[v] = _mm512_maskz_loadu_pd(mask[v], m + k * j_count + j + 8 * v);
    }
    #pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d av = _mm512_set1_pd(a[r * k_count + k]);
      #pragma GCC unroll 2
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_pd(av, mv[v], acc[r][v]);
      }
    }
  }
  #pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    #pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      _mm512_mask_storeu_pd(c + r * j_count + j + 8 * v, mask[v], acc[r][v]);
    }
  }
}

/// dense_forward and dense_backward_input: the chain over batch rows of a.
void chain(const double* m, const double* a, const double* init,
           std::size_t batch, std::size_t k_count, std::size_t j_count,
           double* c) {
  in_blocks_of_8(batch, [&](auto rows, std::size_t s) {
    in_column_blocks(j_count, [&](auto vectors, std::size_t j, __mmask8 last) {
      chain_block<decltype(rows)::value, decltype(vectors)::value>(
          m, a + s * k_count, init, k_count, j_count, j, last, c + s * j_count);
    });
  });
}

void avx512_dense_forward(const double* wt, const double* bias, const double* x,
                          std::size_t batch, std::size_t in, std::size_t out,
                          double* z) {
  chain(wt, x, bias, batch, in, out, z);
}

void avx512_dense_backward_input(const double* w, const double* zbar,
                                 std::size_t batch, std::size_t in,
                                 std::size_t out, double* ybar) {
  chain(w, zbar, nullptr, batch, out, in, ybar);
}

/// Samples per dense_param_grad_tangent block, as in the AVX2 table: every
/// register tile of a block re-reads the block's x and xdot rows, so the
/// block keeps them in cache.  Blocks run in ascending order, so each
/// element still sees the samples in ascending order.
constexpr std::size_t kTangentSampleBlock = 64;

/// Columns [i, i + 8 V) of R output rows of dense_param_grad_tangent over
/// one sample block: x and xdot point at the block's first sample, zbar and
/// zbardot at its first sample's column o, whvp at row o.  The sums load
/// from whvp, take w = fma(z, xd, fma(zd, x, w)) per sample in ascending
/// order, and store back.
template <std::size_t R, std::size_t V>
inline void tangent_block(const double* x, const double* xdot,
                          const double* zbar, const double* zbardot,
                          std::size_t samples, std::size_t in, std::size_t out,
                          std::size_t i, __mmask8 last, double* whvp) {
  __mmask8 mask[V];
  __m512d acc[R][V];
  #pragma GCC unroll 2
  for (std::size_t v = 0; v < V; ++v) {
    mask[v] = v + 1 < V ? __mmask8{0xff} : last;
    #pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][v] = _mm512_maskz_loadu_pd(mask[v], whvp + r * in + i + 8 * v);
    }
  }
  for (std::size_t s = 0; s < samples; ++s) {
    __m512d xv[V];
    __m512d xdv[V];
    #pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      xv[v] = _mm512_maskz_loadu_pd(mask[v], x + s * in + i + 8 * v);
      xdv[v] = _mm512_maskz_loadu_pd(mask[v], xdot + s * in + i + 8 * v);
    }
    #pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d zdv = _mm512_set1_pd(zbardot[s * out + r]);
      const __m512d zv = _mm512_set1_pd(zbar[s * out + r]);
      #pragma GCC unroll 2
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_pd(zv, xdv[v],
                                    _mm512_fmadd_pd(zdv, xv[v], acc[r][v]));
      }
    }
  }
  #pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    #pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      _mm512_mask_storeu_pd(whvp + r * in + i + 8 * v, mask[v], acc[r][v]);
    }
  }
}

void avx512_dense_param_grad_tangent(const double* x, const double* xdot,
                                     const double* zbar, const double* zbardot,
                                     std::size_t batch, std::size_t in,
                                     std::size_t out, double* whvp,
                                     double* bhvp) {
  for (std::size_t s0 = 0; s0 < batch; s0 += kTangentSampleBlock) {
    const std::size_t samples = std::min(kTangentSampleBlock, batch - s0);
    in_blocks_of_8(out, [&](auto rows, std::size_t o) {
      in_column_blocks(in, [&](auto vectors, std::size_t i, __mmask8 last) {
        tangent_block<decltype(rows)::value, decltype(vectors)::value>(
            x + s0 * in, xdot + s0 * in, zbar + s0 * out + o,
            zbardot + s0 * out + o, samples, in, out, i, last, whvp + o * in);
      });
    });
  }
  for (std::size_t s = 0; s < batch; ++s) {
    const double* zdrow = zbardot + s * out;
    for (std::size_t o = 0; o < out; ++o) bhvp[o] += zdrow[o];
  }
}

constexpr Ops kAvx512Ops = {avx512_dense_forward, avx512_dense_backward_input,
                            avx512_dense_param_grad_tangent, avx512_tanh,
                            "avx512f"};

}  // namespace

const Ops* avx512_ops() { return &kAvx512Ops; }

}  // namespace dpho::nn::simd

#endif  // DPHO_SIMD_AVX512
