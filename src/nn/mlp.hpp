// Multi-layer perceptron: layer shapes, one flat parameter vector and a
// plain-double per-sample forward pass.  Training and batched inference run
// the hand-derived batch kernels over the same parameters
// (nn/mlp_kernels.hpp); the tests hold those to a tape-autodiff oracle.
//
// Parameters live in one contiguous vector so optimizers can treat the whole
// network (or several networks concatenated) as a flat parameter space, the
// same way DeePMD-kit's trainer sees one TensorFlow variable list.  Beside
// it the net keeps each layer's weights transposed, input-major, for the
// batched forward; init_xavier and load_params are the only writers of the
// parameters, and both rebuild that copy.
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

  /// Xavier/Glorot-uniform initialization of weights; biases zero.  Until
  /// this or load_params runs, every parameter is zero.
  void init_xavier(util::Rng& rng);

  std::size_t input_width() const;
  std::size_t output_width() const;
  std::size_t num_params() const { return params_.size(); }

  /// Per layer, W as [out][in] row-major, then the out biases.
  std::span<const double> params() const { return params_; }
  /// Per layer, W transposed as [in][out] row-major (no biases), layer
  /// after layer: in * out values for each.
  std::span<const double> packed_weights() const { return packed_; }

  /// Per-sample inference, the reference the batch kernels are tested
  /// against.  Const; safe to call concurrently.
  std::vector<double> forward(std::span<const double> x) const;

  const std::vector<LayerSpec>& layers() const { return layers_; }

  /// Serialization for model checkpoints (the `dp_train` tool writes these).
  std::vector<double> save_params() const { return params_; }
  void load_params(std::span<const double> params);

 private:
  /// Rebuilds packed_ from params_.
  void pack();

  std::vector<LayerSpec> layers_;
  std::vector<double> params_;
  std::vector<double> packed_;
};

}  // namespace dpho::nn
