// The AVX2 table's tanh pass: the core of simd_tanh_core.hpp on four lanes.
//
// This translation unit is built with -mavx2 but without -mfma (see
// src/nn/CMakeLists.txt).  With FMA enabled GCC contracts a*b + c into
// vfmadd even when both halves are written as separate intrinsics, and a
// contracted core would round differently from the scalar table.  Without
// it every lane runs the scalar arithmetic operation for operation, the
// tail included, so the two tables agree bit for bit and a value never
// depends on its position in a batch.
#include "nn/simd_tanh_core.hpp"

#if defined(DPHO_SIMD_AVX2)

#include <immintrin.h>

#include <iterator>

namespace dpho::nn::simd {

namespace {

inline __m256d tanh4(__m256d x) {
  using namespace tanh_core;
  const __m256d sign = _mm256_set1_pd(-0.0);
  // minpd returns its second operand when either is NaN, so the constant
  // goes first and a NaN |x| passes through.
  const __m256d a =
      _mm256_min_pd(_mm256_set1_pd(kClamp), _mm256_andnot_pd(sign, x));
  const __m256d v = _mm256_mul_pd(_mm256_set1_pd(-2.0), a);
  const __m256d shifted =
      _mm256_add_pd(_mm256_mul_pd(v, _mm256_set1_pd(kInvLn2)),
                    _mm256_set1_pd(kRoundShift));
  const __m256d kf = _mm256_sub_pd(shifted, _mm256_set1_pd(kRoundShift));
  const __m256d r =
      _mm256_sub_pd(_mm256_sub_pd(v, _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Hi))),
                    _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Lo)));
  __m256d c = _mm256_set1_pd(kExpm1Coef[0]);
  for (std::size_t j = 1; j < std::size(kExpm1Coef); ++j) {
    c = _mm256_add_pd(_mm256_mul_pd(c, r), _mm256_set1_pd(kExpm1Coef[j]));
  }
  const __m256d p = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r), c));
  const __m256d two_k = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(shifted), _mm256_set1_epi64x(1023)),
      52));
  const __m256d e =
      _mm256_add_pd(_mm256_mul_pd(two_k, p),
                    _mm256_sub_pd(two_k, _mm256_set1_pd(1.0)));
  const __m256d t = _mm256_div_pd(_mm256_xor_pd(e, sign),
                                  _mm256_add_pd(_mm256_set1_pd(2.0), e));
  return _mm256_or_pd(_mm256_andnot_pd(sign, t), _mm256_and_pd(sign, x));
}

/// y, sp and (when spp is non-null) spp of four lanes; the same expressions
/// as the scalar pass.
inline void tanh_block(__m256d z, double* y, double* sp, double* spp) {
  const __m256d t = tanh4(z);
  const __m256d s = _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(t, t));
  _mm256_storeu_pd(y, t);
  _mm256_storeu_pd(sp, s);
  if (spp != nullptr) {
    _mm256_storeu_pd(spp, _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), t), s));
  }
}

}  // namespace

void avx2_tanh(const double* z, double* y, double* sp, double* spp,
               std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    tanh_block(_mm256_loadu_pd(z + k), y + k, sp + k,
               spp != nullptr ? spp + k : nullptr);
  }
  if (k == n) return;
  // The last 1-3 elements run as one zero-padded block, so they see the
  // same lane arithmetic as every other element.
  const std::size_t m = n - k;
  double zt[4] = {};
  double yt[4] = {};
  double st[4] = {};
  double pt[4] = {};
  for (std::size_t i = 0; i < m; ++i) zt[i] = z[k + i];
  tanh_block(_mm256_loadu_pd(zt), yt, st, pt);
  for (std::size_t i = 0; i < m; ++i) {
    y[k + i] = yt[i];
    sp[k + i] = st[i];
    if (spp != nullptr) spp[k + i] = pt[i];
  }
}

}  // namespace dpho::nn::simd

#endif  // DPHO_SIMD_AVX2
