#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "nn/simd.hpp"
#include "util/error.hpp"

namespace dpho::nn {

Activation activation_from_string(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "relu6") return Activation::kRelu6;
  if (name == "softplus") return Activation::kSoftplus;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  if (name == "identity" || name == "none" || name == "linear") {
    return Activation::kIdentity;
  }
  throw util::ValueError("unknown activation: " + name);
}

std::string to_string(Activation activation) {
  switch (activation) {
    case Activation::kRelu: return "relu";
    case Activation::kRelu6: return "relu6";
    case Activation::kSoftplus: return "softplus";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kIdentity: return "identity";
  }
  throw util::ValueError("invalid activation enum");
}

namespace {

/// One exp per element on either branch.
double sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

void activate(Activation activation, const double* z, double* y, double* sp,
              double* spp, std::size_t n) {
  switch (activation) {
    case Activation::kTanh:
      // sp = 1 - t^2, spp = -2 t (1 - t^2)
      simd::active().tanh(z, y, sp, spp, n);
      return;
    case Activation::kSigmoid:
      for (std::size_t k = 0; k < n; ++k) {
        const double s = sigmoid(z[k]);
        y[k] = s;
        sp[k] = s * (1.0 - s);
      }
      // sigmoid'' = s (1 - s) (1 - 2s)
      if (spp != nullptr) {
        for (std::size_t k = 0; k < n; ++k) spp[k] = sp[k] * (1.0 - 2.0 * y[k]);
      }
      return;
    case Activation::kSoftplus:
      // softplus' = sigmoid, softplus'' = sigmoid' = s (1 - s).  Below zero
      // softplus and sigmoid share exp(x).
      for (std::size_t k = 0; k < n; ++k) {
        const double x = z[k];
        if (x >= 0.0) {
          y[k] = x > 30.0 ? x : std::log1p(std::exp(x));
          sp[k] = sigmoid(x);
        } else {
          const double e = std::exp(x);
          y[k] = x < -30.0 ? e : std::log1p(e);
          sp[k] = e / (1.0 + e);
        }
      }
      if (spp != nullptr) {
        for (std::size_t k = 0; k < n; ++k) spp[k] = sp[k] * (1.0 - sp[k]);
      }
      return;
    // The kinked activations use the tape oracle's subgradient convention:
    // the step derivatives are 0 everywhere, so sigma'' is identically 0.
    case Activation::kRelu:
      for (std::size_t k = 0; k < n; ++k) {
        const double x = z[k];
        y[k] = x > 0.0 ? x : 0.0;
        sp[k] = x > 0.0 ? 1.0 : 0.0;
      }
      if (spp != nullptr) std::fill_n(spp, n, 0.0);
      return;
    case Activation::kRelu6:
      for (std::size_t k = 0; k < n; ++k) {
        const double x = z[k];
        y[k] = x <= 0.0 ? 0.0 : (x >= 6.0 ? 6.0 : x);
        sp[k] = (x > 0.0 && x < 6.0) ? 1.0 : 0.0;
      }
      if (spp != nullptr) std::fill_n(spp, n, 0.0);
      return;
    case Activation::kIdentity:
      for (std::size_t k = 0; k < n; ++k) {
        y[k] = z[k];
        sp[k] = 1.0;
      }
      if (spp != nullptr) std::fill_n(spp, n, 0.0);
      return;
  }
  throw util::ValueError("invalid activation enum");
}

double apply(Activation activation, double x) {
  double y = 0.0;
  double sp = 0.0;
  activate(activation, &x, &y, &sp, nullptr, 1);
  return y;
}

double derivative(Activation activation, double x) {
  double y = 0.0;
  double sp = 0.0;
  activate(activation, &x, &y, &sp, nullptr, 1);
  return sp;
}

double second_derivative(Activation activation, double x) {
  double y = 0.0;
  double sp = 0.0;
  double spp = 0.0;
  activate(activation, &x, &y, &sp, &spp, 1);
  return spp;
}

}  // namespace dpho::nn
