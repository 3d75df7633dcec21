// Hand-derived batched forward/backward kernels for nn::Mlp.
//
// An autodiff tape (ad/tape.hpp) allocates one heap node per scalar
// multiply, which makes it a fine differentiation *oracle* -- the tests keep
// it as one -- but a poor training hot path: a DeepPot-SE gradient step
// touches every embedding net once per neighbor per atom per frame.  These
// kernels are that path, four analytic passes over contiguous batches:
//
//   forward   y_l = sigma(W_l y_{l-1} + b_l)            caches y, s', (s'')
//   vjp       zbar_l = s'(z_l) . ybar_l                 caches zbar
//             ybar_{l-1} = W_l^T zbar_l                 input grads
//   jvp       zdot_l = W_l ydot_{l-1}                   directional derivative
//             ydot_l = s'(z_l) . zdot_l                 (parameter tangent 0)
//   vjp_tangent                                          d/de of the vjp:
//             zbardot_l = s''(z_l).zdot_l.ybar_l + s'(z_l).ybardot_l
//             Wdot_l   += zbardot_l x_l^T + zbar_l xdot_l^T
//
// The vjp_tangent pass is the forward-over-reverse rule that gives the
// force-loss second-order term: with the input tangent xdot set from a
// coordinate direction v, the accumulated parameter tangent-adjoints equal
// grad_theta(v . grad_x E) -- a mixed Hessian-vector product -- without ever
// materializing a Hessian (see DESIGN.md section 10).  The vjp accumulates
// no parameter gradient: the one caller that trains (dp::FastGraph) seeds
// out_bar_dot so the tangent pass carries the first-order term as well.
//
// All buffers live in a caller-owned MlpBatchCache that only ever grows, so
// steady-state training performs zero allocations in these kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/mlp.hpp"

namespace dpho::nn {

/// Per-layer caches for one Mlp over one batch.  A cache is bound to
/// whatever (mlp, batch) pair was last passed to mlp_forward_batch; the
/// later passes must use the same pair.  Reusable across batches and nets of
/// identical architecture; buffers grow monotonically.
struct MlpBatchCache {
  std::size_t batch = 0;
  bool has_curvature = false;  // spp valid for the current batch
  // Indexed [layer], each sized batch * layer.out, sample-major rows.
  std::vector<std::vector<double>> y;     // post-activation outputs
  std::vector<std::vector<double>> sp;    // sigma'(z)
  std::vector<std::vector<double>> spp;   // sigma''(z); becomes s''(z).ybar
                                          // after the vjp pass
  std::vector<std::vector<double>> zbar;  // primal pre-activation adjoints
  std::vector<std::vector<double>> zdot;  // tangent pre-activations
  std::vector<std::vector<double>> ydot;  // tangent post-activations
  // Ping-pong rows for adjoint propagation (batch * max width each).
  std::vector<double> bar_a;
  std::vector<double> bar_b;

  /// Output of the last forward pass (batch * output_width).
  std::span<const double> out() const { return y.back(); }
  /// Output tangent of the last jvp pass.
  std::span<const double> out_dot() const { return ydot.back(); }
};

/// Whether the forward pass should also cache sigma''(z) (required before
/// mlp_vjp_tangent_batch; skip for inference / first-order-only work).
enum class Curvature : bool { kNone = false, kCache = true };

/// Batched forward: x is batch rows of mlp.input_width() values.  Fills
/// cache.y and cache.sp (and cache.spp under Curvature::kCache).
void mlp_forward_batch(const Mlp& mlp, std::span<const double> x,
                       std::size_t batch, MlpBatchCache& cache,
                       Curvature curvature);

/// Batched reverse pass (vector-Jacobian product) over the batch of the
/// prior mlp_forward_batch on this cache.  `out_bar` holds the adjoint of
/// each output row; input adjoints are written into `x_bar` when non-empty
/// (batch * input_width).  Caches zbar, and folds ybar into cache.spp
/// (required by the tangent pass, so run the vjp before
/// mlp_vjp_tangent_batch even when only tangents are wanted).  Parameter
/// gradients come from mlp_vjp_tangent_batch's out_bar_dot seed.
void mlp_backward_batch(const Mlp& mlp, std::size_t batch, MlpBatchCache& cache,
                        std::span<const double> out_bar, std::span<double> x_bar);

/// Batched forward tangent (Jacobian-vector product) with zero parameter
/// tangent: xdot is the directional derivative of x.  Fills cache.zdot and
/// cache.ydot.  Requires a prior mlp_forward_batch (uses cache.sp).
void mlp_jvp_batch(const Mlp& mlp, std::span<const double> xdot,
                   std::size_t batch, MlpBatchCache& cache);

/// Tangent of the reverse pass (forward-over-reverse).  `out_bar_dot` is the
/// tangent of out_bar (empty == zeros).  Accumulates (+=) parameter
/// tangent-adjoints into `param_hvp` when non-empty and writes input
/// tangent-adjoints into `x_bar_dot` when non-empty.  Requires prior
/// mlp_forward_batch (Curvature::kCache), mlp_backward_batch, and
/// mlp_jvp_batch on this cache.
void mlp_vjp_tangent_batch(const Mlp& mlp, std::span<const double> x,
                           std::span<const double> xdot, std::size_t batch,
                           MlpBatchCache& cache,
                           std::span<const double> out_bar_dot,
                           std::span<double> x_bar_dot,
                           std::span<double> param_hvp);

}  // namespace dpho::nn
