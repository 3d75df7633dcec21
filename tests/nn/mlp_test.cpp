#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "tape_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::nn {
namespace {

TEST(Mlp, ShapesAndParamCount) {
  Mlp net(3, {4, 2}, Activation::kTanh, Activation::kIdentity);
  EXPECT_EQ(net.input_width(), 3u);
  EXPECT_EQ(net.output_width(), 2u);
  // layer1: 3*4 + 4, layer2: 4*2 + 2.
  EXPECT_EQ(net.num_params(), 16u + 10u);
}

TEST(Mlp, ForwardZeroParamsGivesActivationOfZero) {
  Mlp net(2, {3}, Activation::kTanh, Activation::kSigmoid);
  const auto out = net.forward(std::vector<double>{1.0, -1.0});
  ASSERT_EQ(out.size(), 3u);
  for (double o : out) EXPECT_DOUBLE_EQ(o, 0.5);  // sigmoid(0)
}

TEST(Mlp, ForwardMatchesManualComputation) {
  Mlp net(2, {1}, Activation::kIdentity, Activation::kIdentity);
  // params layout: W (1x2), b (1).
  const double params[3] = {2.0, -3.0, 0.5};
  net.load_params(params);
  const auto out = net.forward(std::vector<double>{4.0, 1.0});
  EXPECT_DOUBLE_EQ(out[0], 2.0 * 4.0 - 3.0 * 1.0 + 0.5);
}

TEST(Mlp, HiddenActivationApplied) {
  Mlp net(1, {1, 1}, Activation::kRelu, Activation::kIdentity);
  // First layer: w=-1, b=0 -> relu(-x); second: w=1, b=0.
  const double params[4] = {-1.0, 0.0, 1.0, 0.0};
  net.load_params(params);
  EXPECT_DOUBLE_EQ(net.forward(std::vector<double>{2.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(net.forward(std::vector<double>{-2.0})[0], 2.0);
}

TEST(Mlp, XavierInitBoundsRespected) {
  util::Rng rng(5);
  Mlp net(10, {20, 5}, Activation::kTanh, Activation::kIdentity);
  net.init_xavier(rng);
  const double bound1 = std::sqrt(6.0 / 30.0);
  const auto params = net.params();
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_LE(std::abs(params[i]), bound1);
  }
  // Biases (after the first weight block) are zero.
  for (std::size_t i = 200; i < 220; ++i) EXPECT_DOUBLE_EQ(params[i], 0.0);
}

TEST(Mlp, TapeForwardMatchesDoubleForward) {
  util::Rng rng(11);
  Mlp net(4, {6, 3}, Activation::kSoftplus, Activation::kTanh);
  net.init_xavier(rng);
  const std::vector<double> x = {0.3, -0.7, 1.1, 0.05};
  const auto expected = net.forward(x);

  ad::Tape tape;
  const auto bound = oracle::bind_params(net, tape);
  std::vector<ad::Var> inputs;
  for (double v : x) inputs.push_back(tape.input(v));
  const auto out = oracle::forward(net, bound, inputs);
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i].value(), expected[i], 1e-12);
  }
}

TEST(Mlp, GradientWrtParamsMatchesFiniteDifference) {
  util::Rng rng(13);
  Mlp net(2, {3, 1}, Activation::kTanh, Activation::kIdentity);
  net.init_xavier(rng);
  const std::vector<double> x = {0.4, -0.9};

  ad::Tape tape;
  const auto bound = oracle::bind_params(net, tape);
  std::vector<ad::Var> inputs;
  for (double v : x) inputs.push_back(tape.input(v));
  const ad::Var out = oracle::forward(net, bound, inputs)[0];
  const auto grads = tape.gradient(out, bound);

  std::vector<double> params(net.params().begin(), net.params().end());
  for (std::size_t p = 0; p < params.size(); p += 3) {
    const double h = 1e-6;
    Mlp plus = net;
    Mlp minus = net;
    auto pp = params;
    pp[p] += h;
    plus.load_params(pp);
    pp[p] -= 2.0 * h;
    minus.load_params(pp);
    const double numeric = (plus.forward(x)[0] - minus.forward(x)[0]) / (2.0 * h);
    EXPECT_NEAR(grads[p].value(), numeric, 1e-6) << "param " << p;
  }
}

TEST(Mlp, LoadParamsRejectsWrongSize) {
  Mlp net(2, {2}, Activation::kTanh, Activation::kIdentity);
  EXPECT_THROW(net.load_params(std::vector<double>{1.0}), util::ValueError);
}

TEST(Mlp, ForwardRejectsWrongInputWidth) {
  Mlp net(2, {2}, Activation::kTanh, Activation::kIdentity);
  EXPECT_THROW(net.forward(std::vector<double>{1.0}), util::ValueError);
}

TEST(Mlp, ConstructorValidation) {
  EXPECT_THROW(Mlp(0, {1}, Activation::kTanh, Activation::kTanh), util::ValueError);
  EXPECT_THROW(Mlp(1, {}, Activation::kTanh, Activation::kTanh), util::ValueError);
}

/// Checks that net.packed_weights() holds each layer's W transposed.
void expect_packed(const Mlp& net) {
  const std::span<const double> params = net.params();
  const std::span<const double> packed = net.packed_weights();
  std::size_t w = 0;
  std::size_t wt = 0;
  for (const LayerSpec& layer : net.layers()) {
    for (std::size_t o = 0; o < layer.out; ++o) {
      for (std::size_t i = 0; i < layer.in; ++i) {
        ASSERT_EQ(packed[wt + i * layer.out + o], params[w + o * layer.in + i])
            << "layer at " << w << " o " << o << " i " << i;
      }
    }
    w += layer.in * layer.out + layer.out;
    wt += layer.in * layer.out;
  }
  EXPECT_EQ(wt, packed.size());
}

TEST(Mlp, PackedWeightsFollowEveryWriter) {
  Mlp net(3, {5, 4, 2}, Activation::kTanh, Activation::kIdentity);
  EXPECT_EQ(net.packed_weights().size(), 3u * 5 + 5 * 4 + 4 * 2);
  expect_packed(net);  // all zero
  util::Rng rng(19);
  net.init_xavier(rng);
  expect_packed(net);
  std::vector<double> params(net.num_params());
  for (double& p : params) p = rng.uniform(-2.0, 2.0);
  net.load_params(params);
  expect_packed(net);
  const Mlp copy = net;
  expect_packed(copy);
}

TEST(Mlp, SaveLoadRoundTrip) {
  util::Rng rng(17);
  Mlp net(3, {5, 2}, Activation::kSigmoid, Activation::kIdentity);
  net.init_xavier(rng);
  Mlp copy(3, {5, 2}, Activation::kSigmoid, Activation::kIdentity);
  copy.load_params(net.save_params());
  const std::vector<double> x = {0.1, 0.2, 0.3};
  EXPECT_EQ(net.forward(x), copy.forward(x));
}

}  // namespace
}  // namespace dpho::nn
