#include "md/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "md/potential.hpp"
#include "md/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dpho::md {
namespace {

struct MiniSystem {
  SystemSpec spec = SystemSpec::scaled_system(1);  // 10 atoms
  SystemState state;
  ReferenceSession session{ReferencePotential(0.45 * spec.box_length())};
  std::vector<Vec3> forces;

  explicit MiniSystem(std::uint64_t seed, double temperature = 300.0) {
    util::Rng rng(seed);
    state = spec.create_initial_state(temperature, rng);
    forces.resize(state.size());
  }

  /// Forces at the current positions; returns the potential energy.
  double compute() { return session.compute(state, forces); }

  double step(const VelocityVerlet& integrator) {
    return integrator.step(state, session, forces);
  }
};

TEST(VelocityVerlet, RejectsNonPositiveTimestep) {
  EXPECT_THROW(VelocityVerlet(0.0), util::ValueError);
  EXPECT_THROW(VelocityVerlet(-1.0), util::ValueError);
}

TEST(VelocityVerlet, ConservesEnergyInNve) {
  MiniSystem sys(21, 200.0);
  const VelocityVerlet integrator(0.5);  // fs
  const double e0 = sys.compute() + kinetic_energy(sys.state);
  double max_drift = 0.0;
  for (int step = 0; step < 400; ++step) {
    const double e = sys.step(integrator) + kinetic_energy(sys.state);
    max_drift = std::max(max_drift, std::abs(e - e0));
  }
  // Shifted-force potential + Verlet: drift well below 1% of kinetic energy.
  const double scale = std::max(1.0, std::abs(kinetic_energy(sys.state)));
  EXPECT_LT(max_drift, 0.05 * scale) << "e0=" << e0;
}

TEST(VelocityVerlet, TimeReversible) {
  MiniSystem sys(23, 150.0);
  const VelocityVerlet integrator(0.5);
  const SystemState initial = sys.state;
  sys.compute();
  for (int step = 0; step < 50; ++step) sys.step(integrator);
  // Reverse velocities and integrate back.
  for (auto& v : sys.state.velocities) v = v * -1.0;
  for (int step = 0; step < 50; ++step) sys.step(integrator);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_NEAR(sys.state.positions[i][k], initial.positions[i][k], 1e-6);
    }
  }
}

TEST(VelocityVerlet, RejectsAForceSpanOfTheWrongSizeBeforeMovingAnyAtom) {
  // The half-kick reads one force per atom before the session sees the
  // span, so a short span must be refused up front, not read past its end.
  MiniSystem sys(41);
  const VelocityVerlet integrator(0.5);
  sys.compute();
  const SystemState before = sys.state;
  for (const std::size_t size : {sys.state.size() - 3, sys.state.size() + 1}) {
    std::vector<Vec3> forces(size);
    EXPECT_THROW(integrator.step(sys.state, sys.session, forces), util::ValueError)
        << size;
  }
  EXPECT_EQ(sys.session.steps(), 1u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(sys.state.positions[i].v, before.positions[i].v) << i;
    EXPECT_EQ(sys.state.velocities[i].v, before.velocities[i].v) << i;
  }
}

TEST(Langevin, RelaxesTowardTargetTemperature) {
  MiniSystem sys(29, 50.0);  // start cold
  const double target = 400.0;
  const VelocityVerlet integrator(1.0);
  util::Rng rng(30);
  LangevinThermostat thermostat(target, 0.05, rng.spawn(1));
  sys.compute();
  std::vector<double> temps;
  for (int step = 0; step < 2000; ++step) {
    sys.step(integrator);
    thermostat.apply(sys.state, 1.0);
    if (step > 1000) temps.push_back(kinetic_temperature(sys.state));
  }
  // 10 atoms fluctuate strongly; check the mean is in the right ballpark.
  EXPECT_NEAR(util::mean(temps), target, 0.35 * target);
}

TEST(Langevin, ValidatesParameters) {
  util::Rng rng(1);
  EXPECT_THROW(LangevinThermostat(-1.0, 0.1, rng.spawn(0)), util::ValueError);
  EXPECT_THROW(LangevinThermostat(300.0, 0.0, rng.spawn(0)), util::ValueError);
}

TEST(Langevin, ZeroTemperatureDampsVelocities) {
  MiniSystem sys(31, 300.0);
  util::Rng rng(32);
  LangevinThermostat thermostat(0.0, 0.5, rng.spawn(1));
  for (int i = 0; i < 200; ++i) thermostat.apply(sys.state, 1.0);
  EXPECT_LT(kinetic_temperature(sys.state), 1.0);
}

TEST(Berendsen, RescalesExactlyTowardTarget) {
  MiniSystem sys(37, 100.0);
  BerendsenThermostat thermostat(400.0, 10.0);
  double prev_gap = std::abs(kinetic_temperature(sys.state) - 400.0);
  for (int i = 0; i < 100; ++i) {
    thermostat.apply(sys.state, 1.0);
    const double gap = std::abs(kinetic_temperature(sys.state) - 400.0);
    EXPECT_LE(gap, prev_gap + 1e-9);
    prev_gap = gap;
  }
  EXPECT_NEAR(kinetic_temperature(sys.state), 400.0, 1.0);
}

TEST(Berendsen, ValidatesParameters) {
  EXPECT_THROW(BerendsenThermostat(300.0, 0.0), util::ValueError);
  EXPECT_THROW(BerendsenThermostat(-5.0, 1.0), util::ValueError);
}

}  // namespace
}  // namespace dpho::md
