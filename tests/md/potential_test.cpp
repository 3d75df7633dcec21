#include "md/potential.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

double pair_energy(const ReferencePotential& pot, Species a, Species b, double r) {
  return pot.pair_energy_force(a, b, r).energy;
}

double pair_force(const ReferencePotential& pot, Species a, Species b, double r) {
  return pot.pair_energy_force(a, b, r).force;
}

/// The separate energy and derivative formulas that pair_energy_force
/// replaced, kept verbatim (constants mirror potential.cpp) as the reference
/// the one-pass evaluator must match bit for bit.
class TwoCallReference {
 public:
  TwoCallReference(double cutoff, double wolf_alpha)
      : cutoff_(cutoff), wolf_alpha_(wolf_alpha) {}

  double pair_energy(Species a, Species b, double r) const {
    if (r >= cutoff_) return 0.0;
    return raw_pair_energy(a, b, r) - raw_pair_energy(a, b, cutoff_) -
           (r - cutoff_) * raw_pair_energy_derivative(a, b, cutoff_);
  }

  double pair_force(Species a, Species b, double r) const {
    if (r >= cutoff_) return 0.0;
    return -(raw_pair_energy_derivative(a, b, r) -
             raw_pair_energy_derivative(a, b, cutoff_));
  }

 private:
  static constexpr double kDispersion[kNumSpecies] = {2.0, 6.0, 11.0};
  static constexpr double kBornPrefactor = 0.8;
  static constexpr double kBornRho = 0.32;
  static constexpr double kDispersionDamp6 = 1.5 * 1.5 * 1.5 * 1.5 * 1.5 * 1.5;

  static PairParams params(Species a, Species b) {
    PairParams p;
    p.bmh_a = kBornPrefactor;
    p.bmh_sigma = species_info(a).radius_ang + species_info(b).radius_ang;
    p.bmh_rho = kBornRho;
    p.dispersion_c = kDispersion[static_cast<std::size_t>(a)] *
                     kDispersion[static_cast<std::size_t>(b)];
    p.charge_product = species_info(a).charge_e * species_info(b).charge_e;
    return p;
  }

  double raw_pair_energy(Species a, Species b, double r) const {
    const PairParams p = params(a, b);
    const double born = p.bmh_a * std::exp((p.bmh_sigma - r) / p.bmh_rho);
    const double dispersion =
        -p.dispersion_c / (std::pow(r, 6) + kDispersionDamp6);
    const double coulomb =
        kCoulombEvAng * p.charge_product * std::erfc(wolf_alpha_ * r) / r;
    return born + dispersion + coulomb;
  }

  double raw_pair_energy_derivative(Species a, Species b, double r) const {
    const PairParams p = params(a, b);
    const double born =
        -p.bmh_a / p.bmh_rho * std::exp((p.bmh_sigma - r) / p.bmh_rho);
    const double denom = std::pow(r, 6) + kDispersionDamp6;
    const double dispersion =
        6.0 * p.dispersion_c * std::pow(r, 5) / (denom * denom);
    const double erfc_term = std::erfc(wolf_alpha_ * r);
    const double gauss_term = 2.0 * wolf_alpha_ / std::sqrt(std::numbers::pi) *
                              std::exp(-wolf_alpha_ * wolf_alpha_ * r * r);
    const double coulomb = kCoulombEvAng * p.charge_product *
                           (-erfc_term / (r * r) - gauss_term / r);
    return born + dispersion + coulomb;
  }

  double cutoff_;
  double wolf_alpha_;
};

class PairSuite
    : public ::testing::TestWithParam<std::pair<Species, Species>> {};

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PairSuite,
    ::testing::Values(std::pair{Species::kAl, Species::kCl},
                      std::pair{Species::kK, Species::kCl},
                      std::pair{Species::kCl, Species::kCl},
                      std::pair{Species::kAl, Species::kAl},
                      std::pair{Species::kAl, Species::kK},
                      std::pair{Species::kK, Species::kK}),
    [](const auto& param_info) {
      return to_string(param_info.param.first) + to_string(param_info.param.second);
    });

TEST_P(PairSuite, EnergyAndForceVanishAtCutoff) {
  const ReferencePotential pot(8.0);
  const auto [a, b] = GetParam();
  EXPECT_NEAR(pair_energy(pot, a, b, 8.0 - 1e-9), 0.0, 1e-6);
  EXPECT_NEAR(pair_force(pot, a, b, 8.0 - 1e-9), 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(pair_energy(pot, a, b, 8.0), 0.0);
  EXPECT_DOUBLE_EQ(pair_force(pot, a, b, 9.0), 0.0);
}

TEST_P(PairSuite, ForceIsNegativeEnergyDerivative) {
  const ReferencePotential pot(8.0);
  const auto [a, b] = GetParam();
  for (double r : {1.8, 2.5, 3.3, 5.0, 7.0}) {
    const double h = 1e-6;
    const double numeric =
        -(pair_energy(pot, a, b, r + h) - pair_energy(pot, a, b, r - h)) / (2.0 * h);
    EXPECT_NEAR(pair_force(pot, a, b, r), numeric,
                1e-4 * std::max(1.0, std::abs(numeric)))
        << "r=" << r;
  }
}

TEST_P(PairSuite, StronglyRepulsiveAtShortRange) {
  const ReferencePotential pot(8.0);
  const auto [a, b] = GetParam();
  // At very short separations the Born wall dominates any Coulomb attraction.
  EXPECT_GT(pair_force(pot, a, b, 0.8), 0.0);
  EXPECT_GT(pair_energy(pot, a, b, 0.8), pair_energy(pot, a, b, 1.5));
}

TEST_P(PairSuite, SymmetricInSpecies) {
  const ReferencePotential pot(8.0);
  const auto [a, b] = GetParam();
  for (double r : {2.0, 4.0, 6.0}) {
    EXPECT_DOUBLE_EQ(pair_energy(pot, a, b, r), pair_energy(pot, b, a, r));
  }
}

TEST(Potential, OnePassEvaluatorMatchesTwoCallFormulasBitwise) {
  // Every species pair (both orders) on a dense grid from contact to past
  // the cutoff, plus the cutoff itself and its floating-point neighbors.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto& [cutoff, alpha] : {std::pair{8.5, 0.2}, std::pair{6.5, 0.2},
                                      std::pair{7.3, 0.27}}) {
    const ReferencePotential pot(cutoff, alpha);
    const TwoCallReference reference(cutoff, alpha);
    std::vector<double> radii;
    for (double r = 0.5; r < cutoff + 1.0; r += 1e-3) radii.push_back(r);
    for (const double r : {cutoff, std::nextafter(cutoff, 0.0),
                           std::nextafter(cutoff, 1e9)}) {
      radii.push_back(r);
    }
    std::size_t checked = 0;
    for (std::size_t a = 0; a < kNumSpecies; ++a) {
      for (std::size_t b = 0; b < kNumSpecies; ++b) {
        const auto sa = static_cast<Species>(a);
        const auto sb = static_cast<Species>(b);
        for (const double r : radii) {
          const PairEnergyForce got = pot.pair_energy_force(sa, sb, r);
          ASSERT_EQ(bits(got.energy), bits(reference.pair_energy(sa, sb, r)))
              << to_string(sa) << to_string(sb) << " r=" << r;
          ASSERT_EQ(bits(got.force), bits(reference.pair_force(sa, sb, r)))
              << to_string(sa) << to_string(sb) << " r=" << r;
          ++checked;
        }
      }
    }
    EXPECT_EQ(checked, 9 * radii.size());
  }
}

TEST(Potential, RejectsNonFiniteOrNonPositiveCutoff) {
  EXPECT_THROW(ReferencePotential(0.0), util::ValueError);
  EXPECT_THROW(ReferencePotential(-1.0), util::ValueError);
  EXPECT_THROW(ReferencePotential(std::numeric_limits<double>::quiet_NaN()),
               util::ValueError);
  EXPECT_THROW(ReferencePotential(std::numeric_limits<double>::infinity()),
               util::ValueError);
}

TEST(Potential, CounterIonPairHasBoundMinimum) {
  const ReferencePotential pot(8.0);
  // Al-Cl should have a well at a physically sensible bond distance.
  double best_r = 0.0;
  double best_e = 1e9;
  for (double r = 1.2; r < 5.0; r += 0.01) {
    const double e = pair_energy(pot, Species::kAl, Species::kCl, r);
    if (e < best_e) {
      best_e = e;
      best_r = r;
    }
  }
  EXPECT_GT(best_r, 1.6);
  EXPECT_LT(best_r, 2.8);
  EXPECT_LT(best_e, -1.0);  // a deep ionic well
}

TEST(Potential, LikeChargesRepelAtMidRange) {
  const ReferencePotential pot(8.0);
  EXPECT_GT(pair_energy(pot, Species::kAl, Species::kAl, 3.0), 0.0);
}

TEST(Potential, TotalForcesMatchFiniteDifferenceOfTotalEnergy) {
  util::Rng rng(11);
  const SystemSpec spec = SystemSpec::scaled_system(2);  // 20 atoms
  SystemState state = spec.create_initial_state(498.0, rng);
  const ReferencePotential pot(0.45 * spec.box_length());
  const ForceEnergy fe = pot.compute(state);
  for (std::size_t a = 0; a < 5; ++a) {
    for (int k = 0; k < 3; ++k) {
      const double h = 1e-5;
      SystemState plus = state;
      SystemState minus = state;
      plus.positions[a][k] += h;
      minus.positions[a][k] -= h;
      const double numeric =
          -(pot.compute(plus).energy - pot.compute(minus).energy) / (2.0 * h);
      EXPECT_NEAR(fe.forces[a][k], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
          << "atom " << a << " axis " << k;
    }
  }
}

TEST(Potential, NetForceIsZeroByNewtonsThirdLaw) {
  util::Rng rng(13);
  const SystemSpec spec = SystemSpec::scaled_system(3);
  const SystemState state = spec.create_initial_state(498.0, rng);
  const ReferencePotential pot(0.45 * spec.box_length());
  const ForceEnergy fe = pot.compute(state);
  Vec3 net{0, 0, 0};
  for (const Vec3& f : fe.forces) net = net + f;
  for (int k = 0; k < 3; ++k) EXPECT_NEAR(net[k], 0.0, 1e-9);
}

TEST(Potential, EnergyInvariantUnderRigidTranslation) {
  util::Rng rng(17);
  const SystemSpec spec = SystemSpec::scaled_system(2);
  SystemState state = spec.create_initial_state(498.0, rng);
  const ReferencePotential pot(0.45 * spec.box_length());
  const double base = pot.compute(state).energy;
  for (auto& r : state.positions) r = r + Vec3{1.3, -2.7, 100.0};
  EXPECT_NEAR(pot.compute(state).energy, base, 1e-8);
}

TEST(Potential, ComputeWithExplicitNeighborListMatches) {
  util::Rng rng(19);
  const SystemSpec spec = SystemSpec::scaled_system(2);
  const SystemState state = spec.create_initial_state(498.0, rng);
  const ReferencePotential pot(0.45 * spec.box_length());
  const Box box(state.box_length);
  const NeighborList list(box, state.positions, pot.cutoff());
  const ForceEnergy a = pot.compute(state);
  const ForceEnergy b = pot.compute(state, list);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(a.forces[i][k], b.forces[i][k]);
  }
}

}  // namespace
}  // namespace dpho::md
