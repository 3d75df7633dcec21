// Deploying a trained potential in molecular dynamics.
//
// The entire point of the paper's optimization is a potential that can drive
// MD at near-first-principles accuracy (section 1).  This adapter exposes a
// trained DeepPotModel as an md::ForceProvider so the velocity-Verlet
// integrator can propagate on the learned surface.  Because forces are exact
// analytic gradients of the learned energy and the descriptor is smooth at
// the cutoff, NVE dynamics on the model conserves energy to integrator
// error -- which the test-suite verifies (the force-consistency property
// section 3.2 calls out as critical for stable dynamics).
//
// All entry points here run through dp::MdSession (dp/md_session.hpp): the
// neighbor skeleton survives between calls under a Verlet skin and the
// kernel workspace is preallocated, so stepping is allocation-free apart
// from the by-value ForceEnergy the legacy ForceProvider signature demands.
// A consequence: each provider/run is bound to one atom count and box (the
// session's contract), which MD integration always satisfies.
#pragma once

#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "md/integrator.hpp"
#include "md/session.hpp"

namespace dpho::dp {

/// Wraps a potential as a force field for the md integrators.  The atom
/// typing must match the simulated system; checked on first call.  The
/// potential's model is shared into the provider, so the returned closure
/// stays valid after the caller's Potential goes out of scope.  Copies of
/// the closure share one session.
md::ForceProvider make_force_provider(Potential potential,
                                      const md::SessionOptions& options = {});

/// Convenience overload: borrows `model` (must outlive the provider) and
/// routes it through the shared dp::Potential entry point.
md::ForceProvider make_force_provider(const DeepPotModel& model);

/// Convenience: run `steps` of NVE velocity-Verlet on the learned surface.
/// Returns per-step total energies (potential + kinetic) for drift analysis.
/// The `options` overload controls the session (skin, chunking, thread pool).
std::vector<double> run_nnp_md(const Potential& potential, md::SystemState& state,
                               double dt_fs, std::size_t steps);
std::vector<double> run_nnp_md(const Potential& potential, md::SystemState& state,
                               double dt_fs, std::size_t steps,
                               const md::SessionOptions& options);
std::vector<double> run_nnp_md(const DeepPotModel& model, md::SystemState& state,
                               double dt_fs, std::size_t steps);

}  // namespace dpho::dp
