#include "nn/activation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tape_oracle.hpp"
#include "util/error.hpp"

namespace dpho::nn {
namespace {

class ActivationSuite : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(AllFive, ActivationSuite,
                         ::testing::Values(Activation::kRelu, Activation::kRelu6,
                                           Activation::kSoftplus, Activation::kSigmoid,
                                           Activation::kTanh),
                         [](const auto& param_info) { return to_string(param_info.param); });

TEST_P(ActivationSuite, StringRoundTrip) {
  const Activation a = GetParam();
  EXPECT_EQ(activation_from_string(to_string(a)), a);
}

TEST_P(ActivationSuite, DoubleAndTapePathsAgree) {
  const Activation a = GetParam();
  for (double x : {-7.0, -1.0, -0.1, 0.5, 3.0, 7.0}) {
    ad::Tape tape;
    const ad::Var v = oracle::apply(a, tape.input(x));
    EXPECT_NEAR(v.value(), apply(a, x), 1e-12) << to_string(a) << " at " << x;
  }
}

TEST_P(ActivationSuite, DerivativeMatchesFiniteDifference) {
  const Activation a = GetParam();
  // Avoid the relu/relu6 kinks at 0 and 6.
  for (double x : {-3.3, -0.7, 0.4, 2.1, 5.2, 7.7}) {
    const double h = 1e-6;
    const double numeric = (apply(a, x + h) - apply(a, x - h)) / (2.0 * h);
    EXPECT_NEAR(derivative(a, x), numeric, 1e-5) << to_string(a) << " at " << x;
  }
}

TEST_P(ActivationSuite, MonotoneNondecreasing) {
  const Activation a = GetParam();
  double prev = apply(a, -10.0);
  for (double x = -10.0; x <= 10.0; x += 0.25) {
    const double y = apply(a, x);
    EXPECT_GE(y, prev - 1e-12) << to_string(a) << " at " << x;
    prev = y;
  }
}

TEST(Activation, ReluClampsNegative) {
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu, 2.0), 2.0);
}

TEST(Activation, Relu6ClampsBothEnds) {
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu6, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu6, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(apply(Activation::kRelu6, 8.0), 6.0);
}

TEST(Activation, SoftplusStableAtExtremes) {
  EXPECT_NEAR(apply(Activation::kSoftplus, 100.0), 100.0, 1e-9);
  EXPECT_NEAR(apply(Activation::kSoftplus, -100.0), 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(apply(Activation::kSoftplus, 700.0)));
}

TEST(Activation, SigmoidStableAtExtremes) {
  EXPECT_NEAR(apply(Activation::kSigmoid, 50.0), 1.0, 1e-12);
  EXPECT_NEAR(apply(Activation::kSigmoid, -50.0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(apply(Activation::kSigmoid, 0.0), 0.5);
}

TEST(Activation, IdentityPassesThrough) {
  EXPECT_DOUBLE_EQ(apply(Activation::kIdentity, -3.7), -3.7);
  EXPECT_DOUBLE_EQ(derivative(Activation::kIdentity, 9.0), 1.0);
}

TEST(Activation, FromStringAliases) {
  EXPECT_EQ(activation_from_string("none"), Activation::kIdentity);
  EXPECT_EQ(activation_from_string("linear"), Activation::kIdentity);
}

TEST(Activation, UnknownNameThrows) {
  EXPECT_THROW(activation_from_string("gelu"), util::ValueError);
  EXPECT_THROW(activation_from_string(""), util::ValueError);
}

TEST(Activation, CandidateListMatchesPaperDecodeOrder) {
  ASSERT_EQ(kNumCandidateActivations, 5);
  EXPECT_EQ(kCandidateActivations[0], Activation::kRelu);
  EXPECT_EQ(kCandidateActivations[1], Activation::kRelu6);
  EXPECT_EQ(kCandidateActivations[2], Activation::kSoftplus);
  EXPECT_EQ(kCandidateActivations[3], Activation::kSigmoid);
  EXPECT_EQ(kCandidateActivations[4], Activation::kTanh);
}

}  // namespace
}  // namespace dpho::nn
