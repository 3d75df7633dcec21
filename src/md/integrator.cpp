#include "md/integrator.hpp"

#include <cmath>

#include "md/session.hpp"
#include "util/error.hpp"

namespace dpho::md {

VelocityVerlet::VelocityVerlet(double dt) : dt_(dt) {
  if (dt <= 0.0) throw util::ValueError("time step must be positive");
}

double VelocityVerlet::step(SystemState& state, PotentialSession& session,
                            std::span<Vec3> forces) const {
  const std::size_t n = state.size();
  if (forces.size() != n) {
    throw util::ValueError("forces span size does not match atom count");
  }
  // Half-kick + drift.
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_mass = kForceToAccel / species_info(state.types[i]).mass_amu;
    state.velocities[i] =
        state.velocities[i] + forces[i] * (0.5 * dt_ * inv_mass);
    state.positions[i] = state.positions[i] + state.velocities[i] * dt_;
  }
  // New forces in place, second half-kick.
  const double energy = session.compute(state, forces);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_mass = kForceToAccel / species_info(state.types[i]).mass_amu;
    state.velocities[i] = state.velocities[i] + forces[i] * (0.5 * dt_ * inv_mass);
  }
  return energy;
}

LangevinThermostat::LangevinThermostat(double temperature_k, double friction,
                                       util::Rng rng)
    : temperature_k_(temperature_k), friction_(friction), rng_(rng) {
  if (temperature_k < 0.0) throw util::ValueError("temperature must be >= 0");
  if (friction <= 0.0) throw util::ValueError("friction must be positive");
}

void LangevinThermostat::apply(SystemState& state, double dt) {
  // Exact Ornstein-Uhlenbeck velocity update ("O" part of BAOAB):
  // v <- c1 v + c2 * sqrt(kT/m) * xi,   c1 = exp(-gamma dt).
  const double c1 = std::exp(-friction_ * dt);
  const double c2 = std::sqrt(1.0 - c1 * c1);
  for (std::size_t i = 0; i < state.size(); ++i) {
    const double mass = species_info(state.types[i]).mass_amu;
    const double sigma =
        std::sqrt(kBoltzmannEv * temperature_k_ * kForceToAccel / mass);
    for (std::size_t k = 0; k < 3; ++k) {
      state.velocities[i][k] = c1 * state.velocities[i][k] + c2 * sigma * rng_.normal();
    }
  }
}

BerendsenThermostat::BerendsenThermostat(double temperature_k, double tau)
    : temperature_k_(temperature_k), tau_(tau) {
  if (temperature_k < 0.0) throw util::ValueError("temperature must be >= 0");
  if (tau <= 0.0) throw util::ValueError("tau must be positive");
}

void BerendsenThermostat::apply(SystemState& state, double dt) {
  const double temp_now = kinetic_temperature(state);
  if (temp_now <= 0.0) return;
  const double lambda_sq = 1.0 + dt / tau_ * (temperature_k_ / temp_now - 1.0);
  const double lambda = std::sqrt(std::max(lambda_sq, 0.0));
  for (auto& v : state.velocities) v = v * lambda;
}

}  // namespace dpho::md
