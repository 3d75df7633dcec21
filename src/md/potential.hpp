// Classical reference potential for the molten AlCl3-KCl system.
//
// Stand-in for the paper's CP2K DFT level of theory (section 2.1.3).  The
// model is a rigid-ion Born-Mayer-Huggins short-range repulsion plus r^-6
// dispersion plus Wolf-damped Coulomb electrostatics, with a shifted-force
// cutoff so that both the energy and the force are continuous at the cutoff
// (required for NVE energy conservation, which the tests verify).  Energies
// are eV, distances Angstrom, forces eV/Angstrom.
#pragma once

#include <array>
#include <vector>

#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "md/system.hpp"

namespace dpho::md {

/// Raw (unshifted) pair interaction parameters for one species pair.
struct PairParams {
  double bmh_a = 0.0;       // eV, Born-Mayer prefactor b
  double bmh_sigma = 0.0;   // Angstrom, sum of ionic radii
  double bmh_rho = 0.32;    // Angstrom, softness
  double dispersion_c = 0.0;  // eV Angstrom^6
  double charge_product = 0.0;  // e^2
};

/// Shifted-force energy and scalar force of one pair at one separation.
struct PairEnergyForce {
  double energy = 0.0;  // eV
  double force = 0.0;   // eV/Angstrom along +r
};

/// Energy + forces of one configuration.
struct ForceEnergy {
  double energy = 0.0;              // total potential energy, eV
  std::vector<Vec3> forces;         // per atom, eV/Angstrom
};

/// The full reference potential.
class ReferencePotential {
 public:
  /// `cutoff` in Angstrom; `wolf_alpha` is the Coulomb damping parameter.
  /// Throws ValueError unless the cutoff is positive and finite.
  explicit ReferencePotential(double cutoff = 8.5, double wolf_alpha = 0.2);

  double cutoff() const { return cutoff_; }

  /// Shifted-force pair energy (zero value and zero derivative at the
  /// cutoff) and the scalar pair force along +r (-dU_sf/dr), from one pass
  /// over the transcendental terms.  Both are zero for r >= cutoff.
  PairEnergyForce pair_energy_force(Species a, Species b, double r) const;

  /// Total energy and forces using a caller-provided neighbor list.
  ForceEnergy compute(const SystemState& state, const NeighborList& neighbors) const;

  /// Caller-owned-output overload: identical arithmetic and summation order
  /// as above, but writes into `out` (reusing its capacity) instead of
  /// allocating a fresh ForceEnergy -- the per-step path of the MD sessions.
  void compute(const SystemState& state, const NeighborList& neighbors,
               ForceEnergy& out) const;

  /// Convenience overload that builds the neighbor list itself.
  ForceEnergy compute(const SystemState& state) const;

 private:
  /// Raw (unshifted) U and dU/dr of one pair.
  struct RawPair {
    double energy = 0.0;
    double slope = 0.0;
  };
  RawPair raw_pair(Species a, Species b, double r) const;
  const PairParams& params(Species a, Species b) const;

  double cutoff_;
  double wolf_alpha_;
  std::array<PairParams, kNumSpecies * kNumSpecies> pair_params_{};
  std::array<double, kNumSpecies * kNumSpecies> shift_energy_{};
  std::array<double, kNumSpecies * kNumSpecies> shift_slope_{};
};

/// Coulomb constant e^2 / (4 pi eps0) in eV Angstrom.
inline constexpr double kCoulombEvAng = 14.399645;

}  // namespace dpho::md
