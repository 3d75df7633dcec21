// Internals of the simd tables (simd.cpp and the simd_avx2* / simd_avx512*
// TUs): the branch-free tanh core every table runs, and each vector
// table's entry points.  Per element, the core computes
//
//   a = min(|x|, 20)          with 20 as the first operand, so a NaN passes
//   e = expm1(-2a):           k = round(-2a / ln2) by the 1.5 * 2^52 shift,
//                             r = -2a - k ln2 (Cody-Waite split of ln2),
//                             p = r + r^2 c(r), a degree-13 Taylor
//                             polynomial of expm1(r), 2^k from the exponent
//                             bits, and e = 2^k p + (2^k - 1)
//   tanh(x) = copysign(-e / (2 + e), x)
//
// The scalar table (simd.cpp), the AVX2 lanes (simd_avx2_tanh.cpp) and the
// AVX-512 lanes (simd_avx512_tanh.cpp) run these operations in this order
// with no FMA, so they round alike.
#pragma once

#include <cstddef>

#include "nn/simd.hpp"

namespace dpho::nn::simd {

namespace tanh_core {
inline constexpr double kClamp = 20.0;  // tanh rounds to 1 from 19.1 on
inline constexpr double kInvLn2 = 0x1.71547652b82fep0;
// kLn2Hi has its low 21 bits clear, so k * kLn2Hi is exact for every k the
// clamp allows (|k| <= 58).
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kRoundShift = 0x1.8p52;  // as md::round_half_even
// 1/13!, 1/12!, ..., 1/2!: Horner coefficients of c(r), expm1(r) = r + r^2 c(r).
inline constexpr double kExpm1Coef[] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         1.0 / 2.0};
}  // namespace tanh_core

/// The AVX2 table's tanh entry (simd_avx2_tanh.cpp, built without -mfma).
void avx2_tanh(const double* z, double* y, double* sp, double* spp,
               std::size_t n);
/// The AVX-512 table's tanh entry (simd_avx512_tanh.cpp).
void avx512_tanh(const double* z, double* y, double* sp, double* spp,
                 std::size_t n);

/// The compiled vector tables, or nullptr when the build left them out
/// (DPHO_ENABLE_SIMD=OFF or a compiler without the ISA flags).  They say
/// nothing about the running CPU: the dispatcher (simd.cpp) checks it.
const Ops* avx2_ops();
const Ops* avx512_ops();

}  // namespace dpho::nn::simd
