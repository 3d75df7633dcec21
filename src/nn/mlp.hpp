// Multi-layer perceptron: layer shapes, one flat parameter vector and a
// plain-double per-sample forward pass.  Training and batched inference run
// the hand-derived batch kernels over the same parameters
// (nn/mlp_kernels.hpp); the tests hold those to a tape-autodiff oracle.
//
// Parameters live in one contiguous vector so optimizers can treat the whole
// network (or several networks concatenated) as a flat parameter space, the
// same way DeePMD-kit's trainer sees one TensorFlow variable list.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "util/rng.hpp"

namespace dpho::nn {

/// Shape + activation of one dense layer.
struct LayerSpec {
  std::size_t in = 0;
  std::size_t out = 0;
  Activation activation = Activation::kIdentity;
};

/// A feed-forward network: dense layers, each with its own activation.
class Mlp {
 public:
  /// Builds the layer list from an input width and hidden widths; every hidden
  /// layer uses `hidden_activation`, the final layer `output_activation`.
  Mlp(std::size_t input_width, const std::vector<std::size_t>& widths,
      Activation hidden_activation, Activation output_activation);

  /// Xavier/Glorot-uniform initialization of weights; biases zero.
  void init_xavier(util::Rng& rng);

  std::size_t input_width() const;
  std::size_t output_width() const;
  std::size_t num_params() const { return params_.size(); }

  std::span<double> params() { return params_; }
  std::span<const double> params() const { return params_; }

  /// Per-sample inference, the reference the batch kernels are tested
  /// against.  Const; safe to call concurrently.
  std::vector<double> forward(std::span<const double> x) const;

  const std::vector<LayerSpec>& layers() const { return layers_; }

  /// Serialization for model checkpoints (the `dp_train` tool writes these).
  std::vector<double> save_params() const { return params_; }
  void load_params(std::span<const double> params);

 private:
  std::vector<LayerSpec> layers_;
  std::vector<double> params_;
};

}  // namespace dpho::nn
