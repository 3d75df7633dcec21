// The forward kernels' activation pass (nn::activate) and the tanh core both
// simd tables run (nn/simd.hpp).
//
// Contracts pinned here:
//   * for every activation but tanh the pass reproduces the per-element
//     functions it replaced, bit for bit (test-local copies below);
//   * tanh stays within kMaxUlp of glibc's std::tanh over every binade,
//     random bit patterns and the range the nets live in, its derivatives
//     are the t-expressions of the returned t, and its edge cases (NaN,
//     +-inf, +-0, subnormals) come back as tanh's;
//   * every vector table the CPU can run agrees with the scalar table bit
//     for bit at every length and offset, tails included.
#include "nn/activation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "nn/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::nn {
namespace {

/// The vector tables this build compiled and the running CPU can run.
std::vector<const simd::Ops*> vector_tables() {
  std::vector<const simd::Ops*> tables;
  for (const simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (const simd::Ops* ops = simd::table(level)) tables.push_back(ops);
  }
  return tables;
}

// The per-element functions as they were before the pass, for the
// activations whose arithmetic the pass keeps.
double old_sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  return std::exp(x) / (1.0 + std::exp(x));
}

double old_apply(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kRelu6: return x <= 0.0 ? 0.0 : (x >= 6.0 ? 6.0 : x);
    case Activation::kSoftplus:
      if (x > 30.0) return x;
      if (x < -30.0) return std::exp(x);
      return std::log1p(std::exp(x));
    case Activation::kSigmoid: return old_sigmoid(x);
    case Activation::kIdentity: return x;
    case Activation::kTanh: break;
  }
  std::abort();
}

double old_derivative(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::kRelu6: return (x > 0.0 && x < 6.0) ? 1.0 : 0.0;
    case Activation::kSoftplus: return old_sigmoid(x);
    case Activation::kSigmoid: {
      const double s = old_sigmoid(x);
      return s * (1.0 - s);
    }
    case Activation::kIdentity: return 1.0;
    case Activation::kTanh: break;
  }
  std::abort();
}

double old_second_derivative(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu:
    case Activation::kRelu6:
    case Activation::kIdentity:
      return 0.0;
    case Activation::kSoftplus: {
      const double s = old_sigmoid(x);
      return s * (1.0 - s);
    }
    case Activation::kSigmoid: {
      const double s = old_sigmoid(x);
      return s * (1.0 - s) * (1.0 - 2.0 * s);
    }
    case Activation::kTanh: break;
  }
  std::abort();
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Signed distance in units in the last place between two finite doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia) - static_cast<std::uint64_t>(ib)
                 : static_cast<std::uint64_t>(ib) - static_cast<std::uint64_t>(ia);
}

/// Edge values plus uniform draws wide enough to cross every branch.
std::vector<double> pass_inputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> x = {0.0,   -0.0,   kTiny,     -kTiny, 1e-300, -1e-300,
                           30.0,  -30.0,  30.000001, -30.000001,
                           6.0,   std::nextafter(6.0, 0.0), std::nextafter(6.0, 7.0),
                           700.0, -700.0, 1000.0,    -1000.0, kInf,   -kInf,
                           std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(2024);
  for (int k = 0; k < 20000; ++k) x.push_back(rng.uniform(-40.0, 40.0));
  for (int k = 0; k < 2000; ++k) x.push_back(rng.uniform(-1e-3, 1e-3));
  return x;
}

class ActivationPass : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(AllButTanh, ActivationPass,
                         ::testing::Values(Activation::kRelu, Activation::kRelu6,
                                           Activation::kSoftplus,
                                           Activation::kSigmoid,
                                           Activation::kIdentity),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST_P(ActivationPass, MatchesThePerElementFunctionsItReplacedBitForBit) {
  const Activation a = GetParam();
  const std::vector<double> z = pass_inputs();
  const std::size_t n = z.size();
  std::vector<double> y(n), sp(n), spp(n);
  activate(a, z.data(), y.data(), sp.data(), spp.data(), n);
  std::vector<double> y_first(n), sp_first(n);
  activate(a, z.data(), y_first.data(), sp_first.data(), nullptr, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double x = z[k];
    EXPECT_EQ(bits(y[k]), bits(old_apply(a, x))) << to_string(a) << " y at " << x;
    EXPECT_EQ(bits(sp[k]), bits(old_derivative(a, x))) << to_string(a) << " sp at " << x;
    EXPECT_EQ(bits(spp[k]), bits(old_second_derivative(a, x)))
        << to_string(a) << " spp at " << x;
    EXPECT_EQ(bits(y_first[k]), bits(y[k])) << to_string(a) << " at " << x;
    EXPECT_EQ(bits(sp_first[k]), bits(sp[k])) << to_string(a) << " at " << x;
  }
}

TEST(ActivationPassAll, OutOfRangeEnumThrows) {
  const auto bad = static_cast<Activation>(99);
  double z = 0.5;
  double y = 0.0;
  double sp = 0.0;
  double spp = 0.0;
  EXPECT_THROW(activate(bad, &z, &y, &sp, &spp, 1), util::ValueError);
  EXPECT_THROW(apply(bad, z), util::ValueError);
  EXPECT_THROW(derivative(bad, z), util::ValueError);
  EXPECT_THROW(second_derivative(bad, z), util::ValueError);
}

// The largest distance from std::tanh measured over the sweep below.
constexpr std::uint64_t kMaxUlp = 3;

/// Feeds check() every binade from 2^-1074 to 2^1023 (its first value and
/// eight random mantissas, both signs), 4M random bit patterns and 4M
/// uniform values in [-25, 25], in chunks of at most 64K values.
template <class Check>
void tanh_sweep(Check&& check) {
  constexpr std::size_t kChunk = 1 << 16;
  util::Rng rng(1977);
  std::vector<double> chunk;
  chunk.reserve(kChunk);
  const auto push = [&](double v) {
    chunk.push_back(v);
    if (chunk.size() == kChunk) {
      check(chunk);
      chunk.clear();
    }
  };
  for (int e = -1074; e <= 1023; ++e) {
    const double base = std::ldexp(1.0, e);
    // Random mantissa bits within the binade (subnormals: below base's bit).
    const std::uint64_t mask =
        e >= -1022 ? (std::uint64_t{1} << 52) - 1 : bits(base) - 1;
    for (int m = 0; m < 9; ++m) {
      const double v =
          m == 0 ? base : std::bit_cast<double>(bits(base) | (rng() & mask));
      push(v);
      push(-v);
    }
  }
  for (int k = 0; k < 4'000'000; ++k) push(std::bit_cast<double>(rng()));
  for (int k = 0; k < 4'000'000; ++k) push(rng.uniform(-25.0, 25.0));
  if (!chunk.empty()) check(chunk);
}

TEST(TanhCore, WithinPinnedUlpOfLibmAndTablesAgreeOverTheSweep) {
  const std::vector<const simd::Ops*> vector = vector_tables();
  std::vector<double> y, sp, spp, vy, vsp, vspp;
  std::uint64_t max_ulp = 0;
  double worst = 0.0;
  std::size_t count = 0;
  std::size_t nan_mismatches = 0;
  std::size_t derivative_mismatches = 0;
  std::size_t table_mismatches = 0;
  tanh_sweep([&](const std::vector<double>& z) {
    const std::size_t n = z.size();
    y.resize(n);
    sp.resize(n);
    spp.resize(n);
    simd::scalar_ops().tanh(z.data(), y.data(), sp.data(), spp.data(), n);
    count += n;
    for (std::size_t k = 0; k < n; ++k) {
      const double t = y[k];
      if (std::isnan(z[k])) {  // NaN payloads are not part of the contract
        nan_mismatches += !std::isnan(t);
        continue;
      }
      const std::uint64_t d = ulp_distance(t, std::tanh(z[k]));
      if (d > max_ulp) {
        max_ulp = d;
        worst = z[k];
      }
      derivative_mismatches += bits(sp[k]) != bits(1.0 - t * t) ||
                               bits(spp[k]) != bits(-2.0 * t * (1.0 - t * t));
    }
    for (const simd::Ops* ops : vector) {
      vy.resize(n);
      vsp.resize(n);
      vspp.resize(n);
      ops->tanh(z.data(), vy.data(), vsp.data(), vspp.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        if (std::isnan(z[k])) {
          nan_mismatches += !std::isnan(vy[k]);
          continue;
        }
        table_mismatches += bits(vy[k]) != bits(y[k]) ||
                            bits(vsp[k]) != bits(sp[k]) ||
                            bits(vspp[k]) != bits(spp[k]);
      }
    }
  });
  RecordProperty("max_ulp", static_cast<int>(max_ulp));
  EXPECT_GT(count, 8'000'000u);
  EXPECT_LE(max_ulp, kMaxUlp) << "worst input " << worst;
  EXPECT_EQ(nan_mismatches, 0u);
  EXPECT_EQ(derivative_mismatches, 0u);
  EXPECT_EQ(table_mismatches, 0u);
}

TEST(TanhCore, EdgeCasesInEveryTable) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> subnormals = {kTiny, -kTiny, 0x0.8p-1022,
                                          -0x0.0000123456789p-1022,
                                          0x0.fffffffffffffp-1022};
  std::vector<const simd::Ops*> tables = vector_tables();
  tables.push_back(&simd::scalar_ops());
  for (const simd::Ops* ops : tables) {
    std::vector<double> z = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
                             0.0, -0.0};
    z.insert(z.end(), subnormals.begin(), subnormals.end());
    std::vector<double> y(z.size()), sp(z.size());
    ops->tanh(z.data(), y.data(), sp.data(), nullptr, z.size());
    EXPECT_TRUE(std::isnan(y[0])) << ops->name;
    EXPECT_EQ(y[1], 1.0) << ops->name;
    EXPECT_EQ(y[2], -1.0) << ops->name;
    EXPECT_EQ(bits(y[3]), bits(0.0)) << ops->name;
    EXPECT_EQ(bits(y[4]), bits(-0.0)) << ops->name;
    for (std::size_t k = 5; k < z.size(); ++k) {
      EXPECT_EQ(bits(y[k]), bits(z[k])) << ops->name << " subnormal " << z[k];
    }
  }
}

TEST(TanhCore, TablesAgreeBitwiseAtEveryLengthAndOffset) {
  const std::vector<const simd::Ops*> vector = vector_tables();
  if (vector.empty()) {
    GTEST_SKIP() << "no vector kernels on this build/CPU";
  }
  constexpr double kGuard = 12345.0;  // must survive past the last element
  constexpr std::size_t kMaxN = 67;
  constexpr std::size_t kOffsets = 8;  // every 8-byte alignment mod 64
  util::Rng rng(77);
  std::vector<double> z(kMaxN + kOffsets);
  for (double& v : z) v = rng.uniform(-25.0, 25.0);
  const simd::Ops& scalar = simd::scalar_ops();
  for (const simd::Ops* ops : vector) {
    for (std::size_t offset = 0; offset < kOffsets; ++offset) {
      for (std::size_t n = 1; n <= kMaxN; ++n) {
        for (const bool curvature : {true, false}) {
          std::vector<double> out[2][3];
          for (int t = 0; t < 2; ++t) {
            for (auto& buffer : out[t]) buffer.assign(offset + n + 1, kGuard);
            const simd::Ops& run = t == 0 ? scalar : *ops;
            run.tanh(z.data() + offset, out[t][0].data() + offset,
                     out[t][1].data() + offset,
                     curvature ? out[t][2].data() + offset : nullptr, n);
          }
          for (int b = 0; b < 3; ++b) {
            ASSERT_EQ(out[0][b][offset + n], kGuard)
                << "n " << n << " offset " << offset;
            ASSERT_EQ(out[1][b][offset + n], kGuard)
                << ops->name << " n " << n << " offset " << offset;
            for (std::size_t k = 0; k < offset + n; ++k) {
              ASSERT_EQ(bits(out[0][b][k]), bits(out[1][b][k]))
                  << ops->name << " buffer " << b << " n " << n << " offset "
                  << offset << " k " << k;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dpho::nn
