// Activation functions tunable by the hyperparameter search.
//
// The paper's genome selects the descriptor-network and fitting-network
// activation functions from {"relu", "relu6", "softplus", "sigmoid", "tanh"}
// (section 2.2.1).  Each comes with its analytic first and second
// derivatives, which the hand-derived training kernels (nn/mlp_kernels.hpp)
// use in place of autodiff; the tests hold them to the tape oracle.
//
// The kernels take all three from one pass per layer, activate(), which
// evaluates each transcendental once per element; apply, derivative and
// second_derivative are one element of it, so a per-row Mlp::forward and the
// batched kernels see the same bits.  tanh -- DeePMD's default and the one
// the workloads run -- comes from the dispatched table's branch-free core
// (nn/simd.hpp), on four AVX2 lanes where the CPU has them.  sigmoid and
// softplus use libm.
#pragma once

#include <cstddef>
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

/// The activation pass of the forward kernels, over n pre-activations z:
/// y = sigma(z), sp = sigma'(z) and, when spp is non-null, spp = sigma''(z),
/// each transcendental evaluated once per element.  The analytic training
/// path needs sigma'' for the force-loss term (differentiating through
/// F = -dE/dx differentiates every activation twice).  Kinked activations
/// (relu, relu6) use the same subgradient convention as the tape oracle:
/// the step functions have derivative 0 everywhere, so their second
/// derivative is identically 0.  Throws ValueError for an out-of-range enum.
void activate(Activation activation, const double* z, double* y, double* sp,
              double* spp, std::size_t n);

/// One element of activate(): the value, the analytical first derivative
/// and the analytical second derivative.
double apply(Activation activation, double x);
double derivative(Activation activation, double x);
double second_derivative(Activation activation, double x);

}  // namespace dpho::nn
