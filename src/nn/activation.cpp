#include "nn/activation.hpp"

#include <cmath>

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

double apply(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kRelu6: return x <= 0.0 ? 0.0 : (x >= 6.0 ? 6.0 : x);
    case Activation::kSoftplus:
      if (x > 30.0) return x;
      if (x < -30.0) return std::exp(x);
      return std::log1p(std::exp(x));
    case Activation::kSigmoid:
      if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
      return std::exp(x) / (1.0 + std::exp(x));
    case Activation::kTanh: return std::tanh(x);
    case Activation::kIdentity: return x;
  }
  throw util::ValueError("invalid activation enum");
}

double second_derivative(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu:
    case Activation::kRelu6:
    case Activation::kIdentity:
      return 0.0;
    case Activation::kSoftplus: {
      // softplus'' = sigmoid' = s (1 - s)
      const double s = apply(Activation::kSigmoid, x);
      return s * (1.0 - s);
    }
    case Activation::kSigmoid: {
      // sigmoid'' = s (1 - s) (1 - 2s)
      const double s = apply(Activation::kSigmoid, x);
      return s * (1.0 - s) * (1.0 - 2.0 * s);
    }
    case Activation::kTanh: {
      // tanh'' = -2 t (1 - t^2)
      const double t = std::tanh(x);
      return -2.0 * t * (1.0 - t * t);
    }
  }
  throw util::ValueError("invalid activation enum");
}

double derivative(Activation activation, double x) {
  switch (activation) {
    case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::kRelu6: return (x > 0.0 && x < 6.0) ? 1.0 : 0.0;
    case Activation::kSoftplus: return apply(Activation::kSigmoid, x);
    case Activation::kSigmoid: {
      const double s = apply(Activation::kSigmoid, x);
      return s * (1.0 - s);
    }
    case Activation::kTanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::kIdentity: return 1.0;
  }
  throw util::ValueError("invalid activation enum");
}

}  // namespace dpho::nn
