#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dpho::nn {

Mlp::Mlp(std::size_t input_width, const std::vector<std::size_t>& widths,
         Activation hidden_activation, Activation output_activation) {
  if (input_width == 0) throw util::ValueError("mlp input width must be positive");
  if (widths.empty()) throw util::ValueError("mlp needs at least one layer");
  std::size_t in = input_width;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const bool last = (i + 1 == widths.size());
    layers_.push_back(LayerSpec{in, widths[i], last ? output_activation : hidden_activation});
    in = widths[i];
  }
  std::size_t total = 0;
  std::size_t weights = 0;
  for (const LayerSpec& layer : layers_) {
    total += layer.in * layer.out + layer.out;
    weights += layer.in * layer.out;
  }
  params_.assign(total, 0.0);
  packed_.assign(weights, 0.0);
}

void Mlp::init_xavier(util::Rng& rng) {
  std::size_t offset = 0;
  for (const LayerSpec& layer : layers_) {
    const double bound = std::sqrt(6.0 / static_cast<double>(layer.in + layer.out));
    for (std::size_t i = 0; i < layer.in * layer.out; ++i) {
      params_[offset + i] = rng.uniform(-bound, bound);
    }
    offset += layer.in * layer.out;
    for (std::size_t i = 0; i < layer.out; ++i) params_[offset + i] = 0.0;
    offset += layer.out;
  }
  pack();
}

void Mlp::pack() {
  const double* w = params_.data();
  double* wt = packed_.data();
  for (const LayerSpec& layer : layers_) {
    for (std::size_t o = 0; o < layer.out; ++o) {
      for (std::size_t i = 0; i < layer.in; ++i) {
        wt[i * layer.out + o] = w[o * layer.in + i];
      }
    }
    w += layer.in * layer.out + layer.out;
    wt += layer.in * layer.out;
  }
}

std::size_t Mlp::input_width() const { return layers_.front().in; }

std::size_t Mlp::output_width() const { return layers_.back().out; }

std::vector<double> Mlp::forward(std::span<const double> x) const {
  if (x.size() != input_width()) throw util::ValueError("mlp forward: bad input width");
  // One reservation at the widest layer keeps the ping-pong buffers from
  // reallocating mid-pass.
  std::size_t max_width = x.size();
  for (const LayerSpec& layer : layers_) max_width = std::max(max_width, layer.out);
  std::vector<double> current;
  current.reserve(max_width);
  current.assign(x.begin(), x.end());
  std::vector<double> next;
  next.reserve(max_width);
  std::size_t offset = 0;
  for (const LayerSpec& layer : layers_) {
    next.assign(layer.out, 0.0);
    const double* weights = params_.data() + offset;
    const double* biases = params_.data() + offset + layer.in * layer.out;
    for (std::size_t o = 0; o < layer.out; ++o) {
      // The dense kernels' chain (nn/simd.hpp): one FMA per input, in order.
      double sum = biases[o];
      const double* row = weights + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) {
        sum = std::fma(current[i], row[i], sum);
      }
      next[o] = apply(layer.activation, sum);
    }
    current.swap(next);
    offset += layer.in * layer.out + layer.out;
  }
  return current;
}

void Mlp::load_params(std::span<const double> params) {
  if (params.size() != params_.size()) {
    throw util::ValueError("mlp load: parameter count mismatch");
  }
  params_.assign(params.begin(), params.end());
  pack();
}

}  // namespace dpho::nn
