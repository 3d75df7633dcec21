#include "nn/simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "nn/simd_tanh_core.hpp"

namespace dpho::nn::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar table: plain loops.  Every dense element is the FMA chain simd.hpp
// specifies, through std::fma, which rounds once whether or not the CPU
// has an FMA unit; the tanh pass runs the core element by element.

/// The tanh core (simd_tanh_core.hpp), one element.
double scalar_tanh_core(double x) {
  using namespace tanh_core;
  double a = std::fabs(x);
  a = kClamp < a ? kClamp : a;  // as minpd(kClamp, a): a NaN passes through
  const double v = -2.0 * a;
  const double shifted = v * kInvLn2 + kRoundShift;
  const double kf = shifted - kRoundShift;
  const double r = (v - kf * kLn2Hi) - kf * kLn2Lo;
  double c = kExpm1Coef[0];
  for (std::size_t j = 1; j < std::size(kExpm1Coef); ++j) {
    c = c * r + kExpm1Coef[j];
  }
  const double p = r + r * r * c;
  // shifted's bit pattern is 1.5 * 2^52's plus k; adding the exponent bias
  // and shifting out everything above the exponent field leaves 2^k.
  const double two_k =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(shifted) + 1023) << 52);
  const double e = two_k * p + (two_k - 1.0);
  return std::copysign(-e / (2.0 + e), x);
}

/// c[s,j] = fma(a[s,K-1], m[K-1,j], ... fma(a[s,0], m[0,j], init[j])) for
/// every sample s, from +0 when init is null: a has rows of k_count values,
/// m and c rows of j_count.  Row by row of m, so every load is contiguous.
void scalar_chain(const double* m, const double* a, const double* init,
                  std::size_t batch, std::size_t k_count, std::size_t j_count,
                  double* c) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* as = a + s * k_count;
    double* cs = c + s * j_count;
    for (std::size_t j = 0; j < j_count; ++j) {
      cs[j] = init != nullptr ? init[j] : 0.0;
    }
    for (std::size_t k = 0; k < k_count; ++k) {
      const double ak = as[k];
      const double* mk = m + k * j_count;
      for (std::size_t j = 0; j < j_count; ++j) cs[j] = std::fma(ak, mk[j], cs[j]);
    }
  }
}

void scalar_dense_forward(const double* wt, const double* bias, const double* x,
                          std::size_t batch, std::size_t in, std::size_t out,
                          double* z) {
  scalar_chain(wt, x, bias, batch, in, out, z);
}

void scalar_dense_backward_input(const double* w, const double* zbar,
                                 std::size_t batch, std::size_t in,
                                 std::size_t out, double* ybar) {
  scalar_chain(w, zbar, nullptr, batch, out, in, ybar);
}

void scalar_dense_param_grad_tangent(const double* x, const double* xdot,
                                     const double* zbar, const double* zbardot,
                                     std::size_t batch, std::size_t in,
                                     std::size_t out, double* whvp,
                                     double* bhvp) {
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
      for (std::size_t i = 0; i < in; ++i) {
        wrow[i] = std::fma(z, xds[i], std::fma(zd, xs[i], wrow[i]));
      }
    }
  }
}

void scalar_tanh(const double* z, double* y, double* sp, double* spp,
                 std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double t = scalar_tanh_core(z[k]);
    y[k] = t;
    sp[k] = 1.0 - t * t;
  }
  if (spp == nullptr) return;
  for (std::size_t k = 0; k < n; ++k) spp[k] = -2.0 * y[k] * sp[k];
}

constexpr Ops kScalarOps = {scalar_dense_forward, scalar_dense_backward_input,
                            scalar_dense_param_grad_tangent, scalar_tanh,
                            "scalar"};

bool cpu_supports_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// -mavx512f lets GCC emit AVX2 code as well, so the AVX-512 table also
/// asks for the AVX2 table's features (every AVX-512F CPU has them).
bool cpu_supports_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") && cpu_supports_avx2_fma();
#else
  return false;
#endif
}

/// The best table this build compiled and the CPU can run.
const Ops* best() {
  for (const Level level : {Level::kAvx512, Level::kAvx2}) {
    if (const Ops* ops = table(level)) return ops;
  }
  return &kScalarOps;
}

std::atomic<const Ops*> g_active{nullptr};

}  // namespace

const Ops& scalar_ops() { return kScalarOps; }

#if !defined(DPHO_SIMD_AVX2)
const Ops* avx2_ops() { return nullptr; }
#endif
#if !defined(DPHO_SIMD_AVX512)
const Ops* avx512_ops() { return nullptr; }
#endif

const Ops* table(Level level) {
  switch (level) {
    case Level::kAvx512:
      return cpu_supports_avx512f() ? avx512_ops() : nullptr;
    case Level::kAvx2:
      return cpu_supports_avx2_fma() ? avx2_ops() : nullptr;
    case Level::kScalar:
      break;
  }
  return &kScalarOps;
}

const Ops& active() {
  const Ops* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    const Ops* resolved = best();
    // Several threads may race the first resolution; they all compute the
    // same answer, so the losing CAS just keeps the winner's value.
    g_active.compare_exchange_strong(ops, resolved, std::memory_order_acq_rel);
    ops = g_active.load(std::memory_order_acquire);
  }
  return *ops;
}

bool select(Level level) {
  const Ops* ops = table(level);
  if (ops == nullptr) return false;
  g_active.store(ops, std::memory_order_release);
  return true;
}

bool available() { return best() != &kScalarOps; }

bool enabled() { return &active() != &kScalarOps; }

bool set_enabled(bool on) {
  g_active.store(on ? best() : &kScalarOps, std::memory_order_release);
  return enabled();
}

const char* level_name() { return active().name; }

}  // namespace dpho::nn::simd
