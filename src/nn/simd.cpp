#include "nn/simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>

#include "nn/simd_tanh_core.hpp"

namespace dpho::nn::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar table: plain loops.  The dense rows keep the arithmetic (and skip
// conditions) of the original mlp_kernels inner loops; the tanh pass runs
// the core element by element.

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

void scalar_dense_forward(const double* w, const double* bias, const double* x,
                          std::size_t batch, std::size_t in, std::size_t out,
                          double* z) {
  for (std::size_t s = 0; s < batch; ++s) {
    const double* xs = x + s * in;
    double* zs = z + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      double acc = bias != nullptr ? bias[o] : 0.0;
      const double* wrow = w + o * in;
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xs[i];
      zs[o] = acc;
    }
  }
}

void scalar_dense_backward_input(const double* w, const double* zbar,
                                 std::size_t batch, std::size_t in,
                                 std::size_t out, double* ybar) {
  std::memset(ybar, 0, batch * in * sizeof(double));
  for (std::size_t s = 0; s < batch; ++s) {
    const double* zrow = zbar + s * out;
    double* yrow = ybar + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const double z = zrow[o];
      if (z == 0.0) continue;
      const double* wrow = w + o * in;
      for (std::size_t i = 0; i < in; ++i) yrow[i] += z * wrow[i];
    }
  }
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
      for (std::size_t i = 0; i < in; ++i) wrow[i] += zd * xs[i] + z * xds[i];
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

std::atomic<const Ops*> g_active{nullptr};

const Ops* resolve_initial() {
  if (avx2_ops() != nullptr && cpu_supports_avx2_fma()) {
    return avx2_ops();
  }
  return &kScalarOps;
}

}  // namespace

const Ops& scalar_ops() { return kScalarOps; }

#if !defined(DPHO_SIMD_AVX2)
const Ops* avx2_ops() { return nullptr; }
#endif

const Ops& active() {
  const Ops* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    const Ops* resolved = resolve_initial();
    // Several threads may race the first resolution; they all compute the
    // same answer, so the losing CAS just keeps the winner's value.
    g_active.compare_exchange_strong(ops, resolved, std::memory_order_acq_rel);
    ops = g_active.load(std::memory_order_acquire);
  }
  return *ops;
}

bool available() { return avx2_ops() != nullptr && cpu_supports_avx2_fma(); }

bool enabled() { return &active() != &kScalarOps; }

bool set_enabled(bool on) {
  if (on && available()) {
    g_active.store(avx2_ops(), std::memory_order_release);
  } else {
    g_active.store(&kScalarOps, std::memory_order_release);
  }
  return enabled();
}

const char* level_name() { return active().name; }

}  // namespace dpho::nn::simd
