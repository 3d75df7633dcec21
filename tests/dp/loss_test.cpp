#include "dp/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tape_oracle.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

nn::ExponentialDecay paper_schedule() {
  return nn::ExponentialDecay(0.001, 1e-8, 40000, 400, /*staircase=*/false);
}

TEST(Loss, PrefactorsStartAtConfiguredValues) {
  const DeepmdLoss loss(LossConfig{}, paper_schedule());
  const LossWeights w = loss.weights_at(0);
  EXPECT_DOUBLE_EQ(w.pref_e, 0.02);
  EXPECT_DOUBLE_EQ(w.pref_f, 1000.0);
}

TEST(Loss, PrefactorsConvergeToLimits) {
  const DeepmdLoss loss(LossConfig{}, paper_schedule());
  const LossWeights w = loss.weights_at(40000);
  EXPECT_NEAR(w.pref_e, 1.0, 1e-3);
  EXPECT_NEAR(w.pref_f, 1.0, 0.05);
}

TEST(Loss, ForceWeightDecreasesEnergyWeightIncreases) {
  // Section 2.2.1: force dominates early, energy later.
  const DeepmdLoss loss(LossConfig{}, paper_schedule());
  LossWeights prev = loss.weights_at(0);
  for (std::size_t step = 4000; step <= 40000; step += 4000) {
    const LossWeights w = loss.weights_at(step);
    EXPECT_LE(w.pref_f, prev.pref_f + 1e-9);
    EXPECT_GE(w.pref_e, prev.pref_e - 1e-9);
    prev = w;
  }
}

TEST(Loss, BuildComputesWeightedMse) {
  ad::Tape tape;
  const ad::Var energy_pred = tape.input(10.0);
  const double energy_ref = 8.0;  // dE = 2, N = 2 -> (dE/N)^2 = 1
  std::vector<ad::Var> forces_pred = {tape.input(1.0), tape.input(0.0),
                                      tape.input(0.0), tape.input(0.0),
                                      tape.input(0.0), tape.input(0.0)};
  std::vector<md::Vec3> forces_ref = {md::Vec3{0.0, 0.0, 0.0},
                                      md::Vec3{0.0, 0.0, 0.0}};
  const LossWeights w{2.0, 3.0};
  const ad::Var total =
      oracle::loss(tape, energy_pred, energy_ref, forces_pred, forces_ref, 2, w);
  // energy term: 2 * 1; force term: 3 * (1^2)/(3*2) = 0.5.
  EXPECT_NEAR(total.value(), 2.0 + 0.5, 1e-12);
}

TEST(Loss, ZeroErrorGivesZeroLoss) {
  ad::Tape tape;
  const ad::Var energy_pred = tape.input(5.0);
  std::vector<ad::Var> forces_pred = {tape.input(0.25), tape.input(-1.0),
                                      tape.input(2.0)};
  std::vector<md::Vec3> forces_ref = {md::Vec3{0.25, -1.0, 2.0}};
  const ad::Var total = oracle::loss(tape, energy_pred, 5.0, forces_pred, forces_ref, 1,
                                   LossWeights{1.0, 1.0});
  EXPECT_NEAR(total.value(), 0.0, 1e-15);
}

TEST(Loss, GradientFlowsToPredictions) {
  ad::Tape tape;
  const ad::Var energy_pred = tape.input(3.0);
  std::vector<ad::Var> forces_pred = {tape.input(1.0), tape.input(0.0),
                                      tape.input(0.0)};
  std::vector<md::Vec3> forces_ref = {md::Vec3{0.5, 0.0, 0.0}};
  const ad::Var total = oracle::loss(tape, energy_pred, 1.0, forces_pred, forces_ref, 1,
                                   LossWeights{1.0, 1.0});
  const double de = tape.gradient(total, {energy_pred})[0].value();
  // d/dE [ (E-1)^2 ] with N=1 -> 2*(3-1) = 4.
  EXPECT_NEAR(de, 4.0, 1e-12);
  const double df = tape.gradient(total, {forces_pred[0]})[0].value();
  // d/dF [ (F-0.5)^2 / 3 ] = 2*(0.5)/3.
  EXPECT_NEAR(df, 2.0 * 0.5 / 3.0, 1e-12);
}

TEST(Loss, MismatchedSpansThrow) {
  ad::Tape tape;
  const ad::Var energy_pred = tape.input(0.0);
  std::vector<ad::Var> forces_pred = {tape.input(0.0)};  // 1 != 3*1
  std::vector<md::Vec3> forces_ref = {md::Vec3{0, 0, 0}};
  EXPECT_THROW(oracle::loss(tape, energy_pred, 0.0, forces_pred, forces_ref, 1,
                          LossWeights{1.0, 1.0}),
               util::ValueError);
}

}  // namespace
}  // namespace dpho::dp
