#include "dp/switching.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tape_oracle.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

TEST(Switching, ValidatesCutoffOrdering) {
  EXPECT_THROW(SwitchingFunction(6.0, 6.0), util::ValueError);
  EXPECT_THROW(SwitchingFunction(6.0, 7.0), util::ValueError);
  EXPECT_THROW(SwitchingFunction(6.0, 0.0), util::ValueError);
  EXPECT_NO_THROW(SwitchingFunction(6.0, 0.5));
}

TEST(Switching, InverseRInsideSmoothRadius) {
  const SwitchingFunction s(8.0, 2.0);
  for (double r : {0.5, 1.0, 1.9}) {
    EXPECT_DOUBLE_EQ(s.value(r), 1.0 / r);
  }
}

TEST(Switching, ZeroBeyondCutoff) {
  const SwitchingFunction s(8.0, 2.0);
  EXPECT_DOUBLE_EQ(s.value(8.0), 0.0);
  EXPECT_DOUBLE_EQ(s.value(100.0), 0.0);
  EXPECT_DOUBLE_EQ(s.derivative(9.0), 0.0);
}

TEST(Switching, ContinuousAtBothBoundaries) {
  const SwitchingFunction s(8.0, 2.0);
  const double eps = 1e-9;
  EXPECT_NEAR(s.value(2.0 - eps), s.value(2.0 + eps), 1e-6);
  EXPECT_NEAR(s.value(8.0 - eps), 0.0, 1e-6);
}

TEST(Switching, DerivativeContinuousAtBothBoundaries) {
  const SwitchingFunction s(8.0, 2.0);
  const double eps = 1e-7;
  EXPECT_NEAR(s.derivative(2.0 - eps), s.derivative(2.0 + eps), 1e-4);
  EXPECT_NEAR(s.derivative(8.0 - eps), 0.0, 1e-4);
}

TEST(Switching, DerivativeMatchesFiniteDifference) {
  const SwitchingFunction s(8.0, 2.0);
  for (double r : {0.7, 1.5, 2.5, 4.0, 6.5, 7.9}) {
    const double h = 1e-6;
    const double numeric = (s.value(r + h) - s.value(r - h)) / (2.0 * h);
    EXPECT_NEAR(s.derivative(r), numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << r;
  }
}

TEST(Switching, MonotonicallyDecreasingInBlendZone) {
  const SwitchingFunction s(10.0, 3.0);
  double prev = s.value(3.0);
  for (double r = 3.05; r < 10.0; r += 0.05) {
    EXPECT_LE(s.value(r), prev + 1e-12);
    prev = s.value(r);
  }
}

TEST(Switching, NonNegativeEverywhere) {
  const SwitchingFunction s(12.0, 2.0);
  for (double r = 0.1; r < 13.0; r += 0.1) {
    EXPECT_GE(s.value(r), 0.0) << r;
  }
}

TEST(Switching, TapeVersionMatchesDoubleVersion) {
  const SwitchingFunction s(8.0, 2.0);
  for (double r : {0.8, 1.9, 2.1, 5.0, 7.5}) {
    ad::Tape tape;
    EXPECT_NEAR(oracle::switching_value(s, tape.input(r)).value(), s.value(r), 1e-12)
        << r;
  }
}

TEST(Switching, TapeGradientMatchesAnalyticDerivative) {
  const SwitchingFunction s(8.0, 2.0);
  for (double r : {1.2, 3.3, 6.4}) {
    ad::Tape tape;
    const ad::Var rv = tape.input(r);
    const ad::Var sv = oracle::switching_value(s, rv);
    const double grad = tape.gradient(sv, {rv})[0].value();
    EXPECT_NEAR(grad, s.derivative(r), 1e-8) << r;
  }
}

class SwitchingParamSuite
    : public ::testing::TestWithParam<std::pair<double, double>> {};

INSTANTIATE_TEST_SUITE_P(CutoffGrid, SwitchingParamSuite,
                         ::testing::Values(std::pair{6.0, 2.0}, std::pair{8.5, 2.0},
                                           std::pair{12.0, 6.0}, std::pair{9.0, 5.9},
                                           std::pair{6.0, 0.5}),
                         [](const auto& param_info) {
                           return "rcut" + std::to_string(int(param_info.param.first * 10)) +
                                  "smth" + std::to_string(int(param_info.param.second * 10));
                         });

TEST_P(SwitchingParamSuite, SmoothnessPropertiesHoldOverTable1Ranges) {
  const auto [rcut, smth] = GetParam();
  const SwitchingFunction s(rcut, smth);
  // Value and derivative go to zero at the cutoff.
  EXPECT_NEAR(s.value(rcut - 1e-9), 0.0, 1e-6);
  EXPECT_NEAR(s.derivative(rcut - 1e-7), 0.0, 1e-4);
  // No negative lobes in the blend region.
  for (double r = smth; r < rcut; r += (rcut - smth) / 50.0) {
    EXPECT_GE(s.value(r), -1e-15);
  }
}

}  // namespace
}  // namespace dpho::dp
