#include "md/potential.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace dpho::md {

namespace {

// Per-species dispersion strength sqrt-combined into C_ij = c_i * c_j, chosen
// to give Tosi-Fumi-like magnitudes (C_ClCl ~ 120 eV A^6).
constexpr double kDispersion[kNumSpecies] = {/*Al*/ 2.0, /*K*/ 6.0, /*Cl*/ 11.0};
// Chosen so the Born repulsion balances the (charge-scaled) Coulomb
// attraction near physical bond distances (Al-Cl ~ 2.1 A, K-Cl ~ 2.9 A);
// weaker values let counter-ions collapse and destabilize the melt.
constexpr double kBornPrefactor = 0.8;  // eV
constexpr double kBornRho = 0.32;        // Angstrom

std::size_t pair_index(Species a, Species b) {
  return static_cast<std::size_t>(a) * kNumSpecies + static_cast<std::size_t>(b);
}

}  // namespace

ReferencePotential::ReferencePotential(double cutoff, double wolf_alpha)
    : cutoff_(cutoff), wolf_alpha_(wolf_alpha) {
  if (!std::isfinite(cutoff) || cutoff <= 0.0) {
    throw util::ValueError("potential cutoff must be positive and finite");
  }
  for (std::size_t a = 0; a < kNumSpecies; ++a) {
    for (std::size_t b = 0; b < kNumSpecies; ++b) {
      const auto sa = static_cast<Species>(a);
      const auto sb = static_cast<Species>(b);
      PairParams p;
      p.bmh_a = kBornPrefactor;
      p.bmh_sigma = species_info(sa).radius_ang + species_info(sb).radius_ang;
      p.bmh_rho = kBornRho;
      p.dispersion_c = kDispersion[a] * kDispersion[b];
      p.charge_product = species_info(sa).charge_e * species_info(sb).charge_e;
      pair_params_[pair_index(sa, sb)] = p;
    }
  }
  // Precompute shifted-force constants per pair type.
  for (std::size_t a = 0; a < kNumSpecies; ++a) {
    for (std::size_t b = 0; b < kNumSpecies; ++b) {
      const auto sa = static_cast<Species>(a);
      const auto sb = static_cast<Species>(b);
      const RawPair raw = raw_pair(sa, sb, cutoff_);
      shift_energy_[pair_index(sa, sb)] = raw.energy;
      shift_slope_[pair_index(sa, sb)] = raw.slope;
    }
  }
}

const PairParams& ReferencePotential::params(Species a, Species b) const {
  return pair_params_[pair_index(a, b)];
}

namespace {
// Short-range damping of the r^-6 dispersion: C/(r^6 + d^6) stays finite at
// contact, so the Born wall always dominates below the ionic radii (the raw
// -C/r^6 would otherwise swallow the repulsion and let ions collapse).
constexpr double kDispersionDamp6 = 1.5 * 1.5 * 1.5 * 1.5 * 1.5 * 1.5;  // d=1.5 A
}  // namespace

ReferencePotential::RawPair ReferencePotential::raw_pair(Species a, Species b,
                                                        double r) const {
  const PairParams& p = params(a, b);
  // exp, pow(r, 6) and erfc once each; every sum and product keeps the
  // operand order of the separate energy and derivative formulas.
  const double born_exp = std::exp((p.bmh_sigma - r) / p.bmh_rho);
  const double denom = std::pow(r, 6) + kDispersionDamp6;
  const double erfc_term = std::erfc(wolf_alpha_ * r);
  const double gauss_term = 2.0 * wolf_alpha_ / std::sqrt(std::numbers::pi) *
                            std::exp(-wolf_alpha_ * wolf_alpha_ * r * r);
  RawPair raw;
  raw.energy = p.bmh_a * born_exp - p.dispersion_c / denom +
               kCoulombEvAng * p.charge_product * erfc_term / r;
  raw.slope = -p.bmh_a / p.bmh_rho * born_exp +
              6.0 * p.dispersion_c * std::pow(r, 5) / (denom * denom) +
              kCoulombEvAng * p.charge_product *
                  (-erfc_term / (r * r) - gauss_term / r);
  return raw;
}

PairEnergyForce ReferencePotential::pair_energy_force(Species a, Species b,
                                                      double r) const {
  if (r >= cutoff_) return {};
  const std::size_t idx = pair_index(a, b);
  const RawPair raw = raw_pair(a, b, r);
  return {raw.energy - shift_energy_[idx] - (r - cutoff_) * shift_slope_[idx],
          -(raw.slope - shift_slope_[idx])};
}

ForceEnergy ReferencePotential::compute(const SystemState& state,
                                        const NeighborList& neighbors) const {
  ForceEnergy out;
  compute(state, neighbors, out);
  return out;
}

void ReferencePotential::compute(const SystemState& state,
                                 const NeighborList& neighbors,
                                 ForceEnergy& out) const {
  if (neighbors.cutoff() < cutoff_ - 1e-12) {
    throw util::ValueError("neighbor list cutoff smaller than potential cutoff");
  }
  // Displacements are recomputed from the *current* positions so the list may
  // be a stale Verlet list (pair identities complete, distances outdated).
  const Box box(state.box_length);
  out.forces.assign(state.size(), Vec3{0.0, 0.0, 0.0});
  double energy = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (const std::uint32_t j : neighbors.neighbors_of(i)) {
      if (j < i) continue;  // each pair once
      const Vec3 d = box.displacement(state.positions[i], state.positions[j]);
      const double r = norm(d);
      if (r >= cutoff_) continue;
      const Species si = state.types[i];
      const Species sj = state.types[j];
      const PairEnergyForce pair = pair_energy_force(si, sj, r);
      energy += pair.energy;
      // F_i = U'(r) * d / r with d = r_j - r_i (see derivation in tests).
      const double magnitude = -pair.force / r;
      const Vec3 fi = d * magnitude;
      out.forces[i] = out.forces[i] + fi;
      out.forces[j] = out.forces[j] - fi;
    }
  }
  out.energy = energy;
}

ForceEnergy ReferencePotential::compute(const SystemState& state) const {
  const Box box(state.box_length);
  const NeighborList neighbors(box, state.positions, cutoff_);
  return compute(state, neighbors);
}

}  // namespace dpho::md
