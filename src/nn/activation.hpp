// Activation functions tunable by the hyperparameter search.
//
// The paper's genome selects the descriptor-network and fitting-network
// activation functions from {"relu", "relu6", "softplus", "sigmoid", "tanh"}
// (section 2.2.1).  Each comes with its analytic first and second
// derivatives, which the hand-derived training kernels (nn/mlp_kernels.hpp)
// use in place of autodiff; the tests hold them to the tape oracle.
#pragma once

#include <string>

namespace dpho::nn {

enum class Activation { kRelu, kRelu6, kSoftplus, kSigmoid, kTanh, kIdentity };

/// The five candidate activations, in the genome's decode order.
inline constexpr Activation kCandidateActivations[] = {
    Activation::kRelu, Activation::kRelu6, Activation::kSoftplus,
    Activation::kSigmoid, Activation::kTanh};
inline constexpr int kNumCandidateActivations = 5;

/// Parses "relu"/"relu6"/"softplus"/"sigmoid"/"tanh"/"identity"; throws
/// ValueError otherwise.
Activation activation_from_string(const std::string& name);
std::string to_string(Activation activation);

double apply(Activation activation, double x);

/// Analytical first derivative.
double derivative(Activation activation, double x);

/// Analytical second derivative.  The analytic training path needs it for the
/// force-loss term (differentiating through F = -dE/dx differentiates every
/// activation twice).  Kinked activations (relu, relu6) use the same
/// subgradient convention as the tape oracle: the step functions have
/// derivative 0 everywhere, so their second derivative is identically 0.
double second_derivative(Activation activation, double x);

}  // namespace dpho::nn
