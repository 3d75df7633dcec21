// The scalar-tape differentiation oracle for DeepPot-SE.
//
// Production code evaluates and differentiates the model only through the
// analytic kernels (dp/fast_graph.hpp, dp/md_session.hpp).  This library
// keeps an independent implementation of the same math on ad::Tape --
// plain autodiff, no hand-derived adjoints -- so the tests and the kernel
// benches can hold the analytic path to agree with it:
//
//   * the ad::Var building blocks: activations, dense networks over
//     tape-bound parameters, the switching function and the DeePMD loss;
//   * the per-frame tape graph: energy, forces F = -dE/dx and the bound
//     parameters, so a loss built on the forces differentiates with respect
//     to the parameters through the force term (double backprop, the way
//     DeePMD-kit trains through TensorFlow);
//   * a plain-double energy that walks one neighbor at a time, the value the
//     finite-difference tests differentiate numerically.
//
// No shipped binary links this library or the tape under it
// (tests/support/ad); a ctest keeps ad/tape.hpp out of src/.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ad/tape.hpp"
#include "dp/loss.hpp"
#include "dp/model.hpp"
#include "dp/switching.hpp"
#include "md/potential.hpp"
#include "nn/activation.hpp"
#include "nn/mlp.hpp"

namespace dpho::oracle {

// -- building blocks --------------------------------------------------------

ad::Var apply(nn::Activation activation, ad::Var x);

/// Tape inputs mirroring `net.params()`, in the same flat order.
std::vector<ad::Var> bind_params(const nn::Mlp& net, ad::Tape& tape);

/// As above, appending onto `out`, so one frame graph binds every net into
/// one caller-owned buffer.
void bind_params(const nn::Mlp& net, ad::Tape& tape, std::vector<ad::Var>& out);

/// Forward pass of `net` with tape-bound parameters and tape inputs.
std::vector<ad::Var> forward(const nn::Mlp& net, std::span<const ad::Var> bound_params,
                             std::span<const ad::Var> x);

/// s(r) on the tape; `r` must carry a value inside (0, rcut) -- callers skip
/// out-of-range neighbors before building graph nodes.
ad::Var switching_value(const dp::SwitchingFunction& switching, ad::Var r);

/// The per-frame DeePMD loss pe (dE/N)^2 + pf |dF|^2 / (3N) on the tape.
ad::Var loss(ad::Tape& tape, ad::Var energy_pred, double energy_ref,
             std::span<const ad::Var> forces_pred,
             std::span<const md::Vec3> forces_ref, std::size_t n_atoms,
             const dp::LossWeights& weights);

// -- the model --------------------------------------------------------------

/// One frame's differentiable graph.
struct TapeGraph {
  ad::Var energy;               // total predicted energy
  std::vector<ad::Var> forces;  // 3N flattened predicted forces
  std::vector<ad::Var> params;  // bound parameters (gather_params order)
};

/// Builds the graph of `frame` on `tape`: coordinates and parameters are
/// tape inputs, neighbors come from model.build_topology(frame).
TapeGraph build_graph(ad::Tape& tape, const dp::DeepPotModel& model,
                      const md::Frame& frame);

/// Energy and forces read off the tape graph.
md::ForceEnergy energy_forces(const dp::DeepPotModel& model, const md::Frame& frame);

/// One frame's loss and its full parameter gradient by double backprop.
struct LossGrad {
  double loss = 0.0;
  std::vector<double> grad;  // gather_params order
};
LossGrad loss_and_grad(const dp::DeepPotModel& model, const md::Frame& frame,
                       double energy_ref, std::span<const md::Vec3> forces_ref,
                       const dp::LossWeights& weights);

/// Plain-double energy, one neighbor and one per-sample forward at a time.
double energy(const dp::DeepPotModel& model, const md::Frame& frame);

}  // namespace dpho::oracle
