// Finite-difference cross-check of the analytic forces (dp::Potential) on
// randomized configurations, differencing the oracle's plain-double energy.
// Unlike model_property_test.cpp (which probes one equilibrated frame), this
// sweeps random ~8-atom frames with mixed species, so the check covers
// neighbor topologies the MD pipeline never visits: near-cutoff pairs,
// asymmetric coordination, atoms close to the switching shoulder.
//
// Tolerances are tiered by activation smoothness: C^inf activations (tanh,
// sigmoid, softplus) must match central differences to near truncation-error
// accuracy, while kinked activations (relu, relu6) get a looser tier that
// absorbs FD noise at the kink without masking sign or scale errors.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "frame_harness.hpp"
#include "tape_oracle.hpp"
#include "util/rng.hpp"

namespace dpho::dp {
namespace {

using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

constexpr std::size_t kAtoms = 8;

struct Tier {
  nn::Activation activation;
  double rel;  // relative tolerance on |F|
  double abs;  // absolute floor, eV/A
};

class FdTier : public ::testing::TestWithParam<Tier> {};

INSTANTIATE_TEST_SUITE_P(
    Activations, FdTier,
    ::testing::Values(Tier{nn::Activation::kTanh, 5e-6, 1e-8},
                      Tier{nn::Activation::kSigmoid, 5e-6, 1e-8},
                      Tier{nn::Activation::kSoftplus, 5e-6, 1e-8},
                      Tier{nn::Activation::kRelu, 3e-2, 1e-6},
                      Tier{nn::Activation::kRelu6, 3e-2, 1e-6}),
    [](const auto& param_info) {
      return nn::to_string(param_info.param.activation);
    });

TEST_P(FdTier, TapeForcesMatchCentralDifferences) {
  const Tier tier = GetParam();
  const double h = 1e-5;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed * 1000 + 17);
    const md::Frame frame = random_frame(rng);
    const std::vector<md::Species> types = random_types(rng);
    const DeepPotModel model(small_config(tier.activation), types, 0.0,
                             seed + 40);
    const md::ForceEnergy fe = Potential::borrow(model).evaluate(frame);
    ASSERT_EQ(fe.forces.size(), kAtoms);
    EXPECT_NEAR(fe.energy, oracle::energy(model, frame), 1e-9);

    for (std::size_t a = 0; a < kAtoms; ++a) {
      for (int k = 0; k < 3; ++k) {
        md::Frame plus = frame;
        md::Frame minus = frame;
        plus.positions[a][k] += h;
        minus.positions[a][k] -= h;
        const double numeric =
            -(oracle::energy(model, plus) - oracle::energy(model, minus)) / (2.0 * h);
        const double tolerance =
            std::max(tier.abs, tier.rel * std::max(1.0, std::abs(numeric)));
        EXPECT_NEAR(fe.forces[a][k], numeric, tolerance)
            << "seed " << seed << " atom " << a << " axis " << k;
      }
    }
  }
}

TEST(ModelFd, FdErrorShrinksWithStepForSmoothActivation) {
  // Sanity-check the cross-check itself: for a smooth model, halving h must
  // shrink the FD-vs-tape discrepancy (truncation error is O(h^2)), which
  // rules out the test passing via slack tolerances alone.
  util::Rng rng(99);
  const md::Frame frame = random_frame(rng);
  const std::vector<md::Species> types = random_types(rng);
  const DeepPotModel model(small_config(nn::Activation::kTanh), types, 0.0, 5);
  const md::ForceEnergy fe = Potential::borrow(model).evaluate(frame);

  const auto max_error = [&](double h) {
    double worst = 0.0;
    for (std::size_t a = 0; a < kAtoms; ++a) {
      for (int k = 0; k < 3; ++k) {
        md::Frame plus = frame;
        md::Frame minus = frame;
        plus.positions[a][k] += h;
        minus.positions[a][k] -= h;
        const double numeric =
            -(oracle::energy(model, plus) - oracle::energy(model, minus)) / (2.0 * h);
        worst = std::max(worst, std::abs(numeric - fe.forces[a][k]));
      }
    }
    return worst;
  };

  const double coarse = max_error(2e-3);
  const double fine = max_error(5e-4);
  // O(h^2) predicts a 16x drop; require at least 4x to stay robust against
  // the floating-point floor.
  EXPECT_LT(fine, coarse / 4.0);
  EXPECT_GT(coarse, 0.0);
}

}  // namespace
}  // namespace dpho::dp
