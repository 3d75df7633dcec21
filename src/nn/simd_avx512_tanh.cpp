// The AVX-512 table's tanh pass: the core of simd_tanh_core.hpp on eight
// lanes.
//
// This translation unit is built with -mavx512f -ffp-contract=off (see
// src/nn/CMakeLists.txt).  AVX-512F has FMAs on zmm registers, and GCC
// contracts a*b + c into them even when both halves are written as
// separate intrinsics; a contracted core would round differently from the
// scalar table.  With contraction off every lane runs the scalar arithmetic
// operation for operation, the masked tail included, so the tables agree
// bit for bit and a value never depends on its position in a batch.
// AVX-512F has no floating-point bitwise ops (those are AVX-512DQ), so the
// sign manipulations run on the integer view of each vector.
#include "nn/simd_tanh_core.hpp"

#if defined(DPHO_SIMD_AVX512)

// GCC 12's avx512fintrin.h passes a self-initialized _mm512_undefined_*()
// as the merge operand of unmasked intrinsics (_mm512_min_pd,
// _mm512_slli_epi64, the bitwise ops), which -Wmaybe-uninitialized reports
// at the header's lines once they are inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <iterator>

namespace dpho::nn::simd {

namespace {

inline __m512d tanh8(__m512d x) {
  using namespace tanh_core;
  const __m512i sign = _mm512_castpd_si512(_mm512_set1_pd(-0.0));
  const __m512i xbits = _mm512_castpd_si512(x);
  // minpd returns its second operand when either is NaN, so the constant
  // goes first and a NaN |x| passes through.
  const __m512d a = _mm512_min_pd(
      _mm512_set1_pd(kClamp),
      _mm512_castsi512_pd(_mm512_andnot_si512(sign, xbits)));
  const __m512d v = _mm512_mul_pd(_mm512_set1_pd(-2.0), a);
  const __m512d shifted =
      _mm512_add_pd(_mm512_mul_pd(v, _mm512_set1_pd(kInvLn2)),
                    _mm512_set1_pd(kRoundShift));
  const __m512d kf = _mm512_sub_pd(shifted, _mm512_set1_pd(kRoundShift));
  const __m512d r =
      _mm512_sub_pd(_mm512_sub_pd(v, _mm512_mul_pd(kf, _mm512_set1_pd(kLn2Hi))),
                    _mm512_mul_pd(kf, _mm512_set1_pd(kLn2Lo)));
  __m512d c = _mm512_set1_pd(kExpm1Coef[0]);
  for (std::size_t j = 1; j < std::size(kExpm1Coef); ++j) {
    c = _mm512_add_pd(_mm512_mul_pd(c, r), _mm512_set1_pd(kExpm1Coef[j]));
  }
  const __m512d p = _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(r, r), c));
  const __m512d two_k = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_add_epi64(_mm512_castpd_si512(shifted), _mm512_set1_epi64(1023)),
      52));
  const __m512d e =
      _mm512_add_pd(_mm512_mul_pd(two_k, p),
                    _mm512_sub_pd(two_k, _mm512_set1_pd(1.0)));
  const __m512d t = _mm512_div_pd(
      _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(e), sign)),
      _mm512_add_pd(_mm512_set1_pd(2.0), e));
  return _mm512_castsi512_pd(
      _mm512_or_si512(_mm512_andnot_si512(sign, _mm512_castpd_si512(t)),
                      _mm512_and_si512(sign, xbits)));
}

/// y, sp and (when spp is non-null) spp of the lanes `mask` marks; the same
/// expressions as the scalar pass.  Lanes outside the mask are neither
/// loaded nor stored.
inline void tanh_lanes(const double* z, double* y, double* sp, double* spp,
                       __mmask8 mask) {
  const __m512d t = tanh8(_mm512_maskz_loadu_pd(mask, z));
  const __m512d s = _mm512_sub_pd(_mm512_set1_pd(1.0), _mm512_mul_pd(t, t));
  _mm512_mask_storeu_pd(y, mask, t);
  _mm512_mask_storeu_pd(sp, mask, s);
  if (spp != nullptr) {
    _mm512_mask_storeu_pd(
        spp, mask, _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), t), s));
  }
}

}  // namespace

void avx512_tanh(const double* z, double* y, double* sp, double* spp,
                 std::size_t n) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    tanh_lanes(z + k, y + k, sp + k, spp != nullptr ? spp + k : nullptr,
               __mmask8{0xff});
  }
  if (k == n) return;
  // The last 1-7 elements run as one masked vector, so they see the same
  // lane arithmetic as every other element.
  tanh_lanes(z + k, y + k, sp + k, spp != nullptr ? spp + k : nullptr,
             static_cast<__mmask8>(0xffu >> (8 - (n - k))));
}

}  // namespace dpho::nn::simd

#endif  // DPHO_SIMD_AVX512
