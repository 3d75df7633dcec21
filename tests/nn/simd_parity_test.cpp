// Vector-vs-scalar parity for the dispatched kernels, over every
// activation, via the four public mlp_kernels passes run once per table
// this build and CPU have.
//
// The pinned tolerance is zero (DESIGN.md section 13): every dense element
// of every table is the same FMA chain and the tanh pass runs one core, so
// each vector table must reproduce the scalar table's bits.  Each table is
// also bit-reproducible run to run.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/mlp_kernels.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace dpho::nn {
namespace {

// Odd sizes on purpose: every vector kernel has to run its tails.
constexpr std::size_t kIn = 7;
constexpr std::size_t kBatch = 9;

Mlp make_mlp(Activation activation, std::uint64_t seed) {
  Mlp mlp(kIn, {11, 6, 3}, activation, activation);
  util::Rng rng(seed);
  mlp.init_xavier(rng);
  return mlp;
}

std::vector<double> random_values(util::Rng& rng, std::size_t count) {
  std::vector<double> values(count);
  for (double& v : values) v = rng.uniform(-1.5, 1.5);
  return values;
}

void expect_same_bits(const std::vector<double>& vec,
                      const std::vector<double>& scalar, const char* what) {
  ASSERT_EQ(vec.size(), scalar.size()) << what;
  for (std::size_t k = 0; k < vec.size(); ++k) {
    EXPECT_EQ(std::memcmp(&vec[k], &scalar[k], sizeof(double)), 0)
        << what << "[" << k << "]: " << vec[k] << " against " << scalar[k];
  }
}

/// Everything the four passes produce for one dispatch level.
struct PassOutputs {
  std::vector<double> forward_out;
  std::vector<double> x_bar;
  std::vector<double> jvp_out;
  std::vector<double> x_bar_dot;
  std::vector<double> param_hvp;
};

PassOutputs run_all_passes(const Mlp& mlp, const std::vector<double>& x,
                           const std::vector<double>& xdot,
                           const std::vector<double>& out_bar,
                           const std::vector<double>& out_bar_dot) {
  MlpBatchCache cache;
  PassOutputs result;
  mlp_forward_batch(mlp, x, kBatch, cache, Curvature::kCache);
  result.forward_out.assign(cache.out().begin(), cache.out().end());

  result.x_bar.resize(kBatch * kIn);
  mlp_backward_batch(mlp, kBatch, cache, out_bar, result.x_bar);

  mlp_jvp_batch(mlp, xdot, kBatch, cache);
  result.jvp_out.assign(cache.out_dot().begin(), cache.out_dot().end());

  result.x_bar_dot.resize(kBatch * kIn);
  result.param_hvp.assign(mlp.num_params(), 0.0);
  mlp_vjp_tangent_batch(mlp, x, xdot, kBatch, cache, out_bar_dot,
                        result.x_bar_dot, result.param_hvp);
  return result;
}

/// The vector levels this build compiled and the running CPU can run.
std::vector<simd::Level> vector_levels() {
  std::vector<simd::Level> levels;
  for (const simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::table(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

class SimdParity : public ::testing::TestWithParam<Activation> {
 protected:
  void SetUp() override {
    if (!simd::available()) {
      GTEST_SKIP() << "no vector kernels on this build/CPU";
    }
    was_enabled_ = simd::enabled();
  }
  void TearDown() override {
    if (simd::available()) simd::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

INSTANTIATE_TEST_SUITE_P(All, SimdParity,
                         ::testing::Values(Activation::kTanh, Activation::kSigmoid,
                                           Activation::kSoftplus, Activation::kRelu,
                                           Activation::kRelu6,
                                           Activation::kIdentity),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST_P(SimdParity, AllFourPassesMatchScalarWithinPinnedTolerance) {
  const Mlp mlp = make_mlp(GetParam(), 17);
  util::Rng rng(23);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  const std::vector<double> xdot = random_values(rng, kBatch * kIn);
  const std::vector<double> out_bar =
      random_values(rng, kBatch * mlp.output_width());
  const std::vector<double> out_bar_dot =
      random_values(rng, kBatch * mlp.output_width());

  ASSERT_FALSE(simd::set_enabled(false));
  ASSERT_STREQ(simd::level_name(), "scalar");
  const PassOutputs ref = run_all_passes(mlp, x, xdot, out_bar, out_bar_dot);

  for (const simd::Level level : vector_levels()) {
    ASSERT_TRUE(simd::select(level));
    SCOPED_TRACE(simd::level_name());
    const PassOutputs vec = run_all_passes(mlp, x, xdot, out_bar, out_bar_dot);
    expect_same_bits(vec.forward_out, ref.forward_out, "forward");
    expect_same_bits(vec.x_bar, ref.x_bar, "x_bar");
    expect_same_bits(vec.jvp_out, ref.jvp_out, "jvp");
    expect_same_bits(vec.x_bar_dot, ref.x_bar_dot, "x_bar_dot");
    expect_same_bits(vec.param_hvp, ref.param_hvp, "param_hvp");
  }
}

TEST_P(SimdParity, RepeatedRunsAreBitIdenticalWithinOneDispatchLevel) {
  const Mlp mlp = make_mlp(GetParam(), 31);
  util::Rng rng(37);
  const std::vector<double> x = random_values(rng, kBatch * kIn);
  const std::vector<double> xdot = random_values(rng, kBatch * kIn);
  const std::vector<double> out_bar =
      random_values(rng, kBatch * mlp.output_width());
  const std::vector<double> out_bar_dot =
      random_values(rng, kBatch * mlp.output_width());

  std::vector<simd::Level> levels = vector_levels();
  levels.push_back(simd::Level::kScalar);
  for (const simd::Level level : levels) {
    ASSERT_TRUE(simd::select(level));
    SCOPED_TRACE(simd::level_name());
    const PassOutputs a = run_all_passes(mlp, x, xdot, out_bar, out_bar_dot);
    const PassOutputs b = run_all_passes(mlp, x, xdot, out_bar, out_bar_dot);
    EXPECT_EQ(a.forward_out, b.forward_out);
    EXPECT_EQ(a.x_bar, b.x_bar);
    EXPECT_EQ(a.jvp_out, b.jvp_out);
    EXPECT_EQ(a.x_bar_dot, b.x_bar_dot);
    EXPECT_EQ(a.param_hvp, b.param_hvp);
  }
}

TEST(SimdDispatch, SetEnabledReportsResultingState) {
  const bool was = simd::enabled();
  const bool off = simd::set_enabled(false);
  EXPECT_FALSE(off);
  EXPECT_STREQ(simd::level_name(), "scalar");
  const bool on = simd::set_enabled(true);
  EXPECT_EQ(on, simd::available());  // enabling is a no-op without the table
  // Enabling picks the best table the CPU runs.
  const simd::Ops* best = simd::table(simd::Level::kAvx512);
  if (best == nullptr) best = simd::table(simd::Level::kAvx2);
  if (best == nullptr) best = &simd::scalar_ops();
  EXPECT_EQ(&simd::active(), best);
  EXPECT_STREQ(simd::level_name(), best->name);
  // select() takes any level the CPU runs and refuses the rest.
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    const simd::Ops* ops = simd::table(level);
    EXPECT_EQ(simd::select(level), ops != nullptr);
    if (ops != nullptr) {
      EXPECT_EQ(&simd::active(), ops);
    }
  }
  EXPECT_NE(simd::table(simd::Level::kScalar), nullptr);
  simd::set_enabled(was);
}

}  // namespace
}  // namespace dpho::nn
