#include "md/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "hpc/thread_pool.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"
#include "md/potential.hpp"
#include "md/system.hpp"
#include "obs/metrics.hpp"
#include "support/alloc_hook.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

SystemState make_state(std::size_t kcl_units, double temperature_k,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  return SystemSpec::scaled_system(kcl_units).create_initial_state(
      temperature_k, rng);
}

bool bitwise_equal(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

// Runs `steps` of NVE velocity-Verlet through a fresh session and returns the
// final positions and forces.
struct Trajectory {
  SystemState state;
  std::vector<Vec3> forces;
  std::size_t session_steps = 0;
  std::size_t rebuilds = 0;
};

Trajectory run_trajectory(const ReferencePotential& potential,
                          const SessionOptions& options, std::size_t kcl_units,
                          std::size_t steps) {
  Trajectory out;
  out.state = make_state(kcl_units, 400.0, 7);
  ReferenceSession session(potential, options);
  const VelocityVerlet integrator(1.0);
  out.forces.assign(out.state.size(), Vec3{0.0, 0.0, 0.0});
  session.compute(out.state, out.forces);
  for (std::size_t step = 0; step < steps; ++step) {
    integrator.step(out.state, session, out.forces);
  }
  out.session_steps = session.steps();
  out.rebuilds = session.neighbor_rebuilds();
  return out;
}

/// ReferenceSession's force pass from before each pair's work was done
/// once, kept verbatim as the bitwise reference: the full-neighbor form,
/// every pair evaluated at both centers, over a skeleton of the list's rows.
class FullNeighborWalk {
 public:
  FullNeighborWalk(const ReferencePotential& potential, const SystemState& state,
                   const NeighborList& list, const SessionOptions& options)
      : potential_(potential), box_(state.box_length),
        chunk_begin_(make_chunk_partition(state.size(), options)),
        chunk_energy_(chunk_begin_.size() - 1, 0.0) {
    skel_offsets_.push_back(0);
    for (std::size_t i = 0; i < state.size(); ++i) {
      for (const std::uint32_t j : list.neighbors_of(i)) skel_index_.push_back(j);
      skel_offsets_.push_back(skel_index_.size());
    }
  }

  double compute(const SystemState& state, std::span<Vec3> forces) {
    for (std::size_t c = 0; c + 1 < chunk_begin_.size(); ++c) eval_chunk(c, state, forces);
    double energy = 0.0;
    for (const double e : chunk_energy_) energy += e;
    return energy;
  }

 private:
  void eval_chunk(std::size_t c, const SystemState& state,
                  std::span<Vec3> forces) {
    const double rc = potential_.cutoff();
    const double rc_sq = rc * rc;
    double energy = 0.0;
    for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
      const Vec3 ri = state.positions[i];
      const Species si = state.types[i];
      Vec3 f{0.0, 0.0, 0.0};
      const std::size_t row_end = skel_offsets_[i + 1];
      for (std::size_t k = skel_offsets_[i]; k < row_end; ++k) {
        const std::size_t j = skel_index_[k];
        const Vec3 d = box_.displacement(ri, state.positions[j]);
        const double dist_sq = dot(d, d);
        if (dist_sq >= rc_sq || dist_sq == 0.0) continue;
        const double r = std::sqrt(dist_sq);
        const Species sj = state.types[j];
        // Full-neighbor form: each pair is seen from both centers, so each
        // occurrence carries half the pair energy (exact: *0.5 is a power of
        // two) and the full force on this center.
        const PairEnergyForce pair = potential_.pair_energy_force(si, sj, r);
        energy += 0.5 * pair.energy;
        f = f + d * (-pair.force / r);
      }
      forces[i] = f;
    }
    chunk_energy_[c] = energy;
  }

  const ReferencePotential& potential_;
  Box box_;
  std::vector<std::size_t> chunk_begin_;
  std::vector<double> chunk_energy_;
  std::vector<std::size_t> skel_offsets_;
  std::vector<std::uint32_t> skel_index_;
};

TEST(MakeChunkPartition, CoversRangeAndRespectsBounds) {
  SessionOptions options;
  options.chunk_atoms = 64;
  options.max_chunks = 16;
  const auto parts = make_chunk_partition(1000, options);
  ASSERT_GE(parts.size(), 2u);
  EXPECT_EQ(parts.front(), 0u);
  EXPECT_EQ(parts.back(), 1000u);
  EXPECT_LE(parts.size() - 1, 16u);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    EXPECT_LT(parts[i], parts[i + 1]);
  }
}

TEST(ReferenceSessionTest, MatchesDirectPotentialCompute) {
  const SystemState state = make_state(26, 400.0, 11);  // 260 atoms
  const ReferencePotential potential(6.5);
  ReferenceSession session(potential, {});
  std::vector<Vec3> forces(state.size());
  const double energy = session.compute(state, forces);

  NeighborList list;
  list.build(Box(state.box_length), state.positions, potential.cutoff());
  const ForceEnergy reference = potential.compute(state, list);
  EXPECT_NEAR(energy, reference.energy,
              1e-10 * std::max(1.0, std::abs(reference.energy)));
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(forces[i][k], reference.forces[i][k], 1e-10)
          << "atom " << i << " component " << k;
    }
  }
}

TEST(ReferenceSessionTest, CallerOwnedComputeOverloadMatches) {
  const SystemState state = make_state(8, 300.0, 3);
  const ReferencePotential potential(6.0);
  NeighborList list;
  list.build(Box(state.box_length), state.positions, potential.cutoff());
  const ForceEnergy fresh = potential.compute(state, list);
  ForceEnergy reused;
  potential.compute(state, list, reused);
  EXPECT_EQ(fresh.energy, reused.energy);
  EXPECT_TRUE(bitwise_equal(fresh.forces, reused.forces));
}

TEST(ReferenceSessionTest, SessionVsFreshRebuildBitwise) {
  // A skinned session walking stale pair identities must produce bit-identical
  // trajectories to a session that rebuilds its topology every step.
  const ReferencePotential potential(6.5);
  SessionOptions skinned;
  skinned.skin = 0.9;
  SessionOptions fresh;
  fresh.skin = 0.0;
  const Trajectory a = run_trajectory(potential, skinned, 26, 120);
  const Trajectory b = run_trajectory(potential, fresh, 26, 120);
  EXPECT_TRUE(bitwise_equal(a.state.positions, b.state.positions));
  EXPECT_TRUE(bitwise_equal(a.state.velocities, b.state.velocities));
  EXPECT_TRUE(bitwise_equal(a.forces, b.forces));
  // The skin must actually have saved rebuilds (and the fresh run must not).
  EXPECT_LT(a.rebuilds, a.session_steps);
  EXPECT_EQ(b.rebuilds, b.session_steps);
}

TEST(ReferenceSessionTest, RecordsStepTimesStepsAndRebuilds) {
  // The md.session.* metrics a run's metrics summary reports: one timed step
  // and one step count per compute, one count per neighbor rebuild.
  obs::Histogram& step_seconds = obs::metrics().histogram(
      "md.session.step_seconds", obs::BucketLayout::timing_seconds());
  const obs::Counter& steps = obs::metrics().counter("md.session.steps_total");
  const obs::Counter& rebuilds = obs::metrics().counter("md.session.rebuilds_total");
  const std::uint64_t timed_before = step_seconds.snapshot().count;
  const std::int64_t steps_before = steps.value();
  const std::int64_t rebuilds_before = rebuilds.value();
  SessionOptions skinned;
  skinned.skin = 0.9;
  const Trajectory run = run_trajectory(ReferencePotential(6.5), skinned, 26, 40);
  ASSERT_GT(run.rebuilds, 0u);
  EXPECT_EQ(step_seconds.snapshot().count - timed_before, run.session_steps);
  EXPECT_EQ(steps.value() - steps_before, static_cast<std::int64_t>(run.session_steps));
  EXPECT_EQ(rebuilds.value() - rebuilds_before, static_cast<std::int64_t>(run.rebuilds));
}

TEST(ReferenceSessionTest, ThreadCountParityBitwise) {
  const ReferencePotential potential(6.5);
  SessionOptions serial;
  serial.chunk_atoms = 16;  // force many chunks on 260 atoms
  const Trajectory baseline = run_trajectory(potential, serial, 26, 60);
  EXPECT_GT(baseline.session_steps, 0u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    hpc::ThreadPool pool(threads);
    SessionOptions parallel = serial;
    parallel.pool = &pool;
    const Trajectory run = run_trajectory(potential, parallel, 26, 60);
    EXPECT_TRUE(bitwise_equal(run.state.positions, baseline.state.positions))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.forces, baseline.forces))
        << threads << " threads";
  }
}

TEST(ReferenceSessionTest, OneEvaluationPassMatchesFullNeighborWalkBitwise) {
  // Random melts, a bare and a skinned list (the skinned rows carry pairs
  // beyond rc, and stale ones between rebuilds), serial and on 2 and 4
  // threads.  The walk reads a fresh list at rc + skin: it skips the same
  // out-of-cutoff entries, so its bits do not depend on the list's staleness.
  const ReferencePotential potential(6.5);
  hpc::ThreadPool two(1), four(3);
  util::Rng rng(61);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t units = 26 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    const SystemState start = make_state(units, 300.0 + 200.0 * trial, 71 + trial);
    for (const double skin : {0.0, 0.8}) {
      for (hpc::ThreadPool* pool : {static_cast<hpc::ThreadPool*>(nullptr), &two, &four}) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " skin " << skin
                                          << " pool " << (pool ? pool->size() + 1 : 1));
        SessionOptions options;
        options.skin = skin;
        options.chunk_atoms = 16;
        options.pool = pool;
        ReferenceSession session(potential, options);
        SystemState state = start;
        std::vector<Vec3> forces(state.size()), expected(state.size());
        for (int step = 0; step < 4; ++step) {
          const double energy = session.compute(state, forces);
          const NeighborList list(Box(state.box_length), state.positions,
                                  potential.cutoff() + session.skin());
          FullNeighborWalk walk(potential, state, list, options);
          EXPECT_EQ(energy, walk.compute(state, expected)) << "step " << step;
          EXPECT_TRUE(bitwise_equal(forces, expected)) << "step " << step;
          for (Vec3& r : state.positions) {
            for (double& x : r) x += rng.uniform(-0.05, 0.05);
          }
        }
      }
    }
  }
}

TEST(ReferenceSessionTest, OneEvaluationPassSkipsACoincidentPairLikeTheWalk) {
  // Two atoms 0.5 A apart are in the skinned list; each moves 0.25 A (under
  // skin/2) onto the other, so the next step walks a stale pair at r = 0.
  const ReferencePotential potential(6.5);
  SystemState state = make_state(26, 300.0, 43);
  state.positions[1] = state.positions[0] + Vec3{0.5, 0.0, 0.0};
  for (const double skin : {0.0, 0.8}) {
    SessionOptions options;
    options.skin = skin;
    options.chunk_atoms = 16;
    ReferenceSession session(potential, options);
    std::vector<Vec3> forces(state.size()), expected(state.size());
    session.compute(state, forces);
    SystemState merged = state;
    merged.positions[0] = state.positions[0] + Vec3{0.25, 0.0, 0.0};
    merged.positions[1] = merged.positions[0];
    const double energy = session.compute(merged, forces);
    EXPECT_EQ(session.neighbor_rebuilds(), skin > 0.0 ? 1u : 2u) << "skin " << skin;
    const NeighborList list(Box(merged.box_length), merged.positions,
                            potential.cutoff() + session.skin());
    FullNeighborWalk walk(potential, merged, list, options);
    EXPECT_EQ(energy, walk.compute(merged, expected)) << "skin " << skin;
    EXPECT_TRUE(bitwise_equal(forces, expected)) << "skin " << skin;
    EXPECT_TRUE(std::isfinite(energy));
  }
}

TEST(ReferenceSessionTest, NonFinitePositionMidRunThrowsNamingTheAtom) {
  // Between rebuilds the session walks its stale list; a non-finite
  // position forces a rebuild, and the build rejects it by name instead of
  // the step returning NaN forces.  The session stays usable.
  const ReferencePotential potential(6.5);
  const SystemState state = make_state(26, 300.0, 47);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SessionOptions options;
    options.skin = 0.8;
    ReferenceSession session(potential, options);
    std::vector<Vec3> forces(state.size());
    const double energy = session.compute(state, forces);
    SystemState broken = state;
    broken.positions[9][0] = bad;
    try {
      session.compute(broken, forces);
      ADD_FAILURE() << "no error for coordinate " << bad;
    } catch (const util::ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("atom 9 "), std::string::npos) << e.what();
    }
    EXPECT_EQ(session.compute(state, forces), energy);
  }
}

TEST(ReferenceSessionTest, BruteForceAndCellBuildsAgreeBitwise) {
  // 800 atoms: the box is wide enough (>= 3 cells) for the forced cell path.
  const ReferencePotential potential(6.5);
  SessionOptions cells;
  cells.neighbor_build = NeighborBuild::kCells;
  SessionOptions brute;
  brute.neighbor_build = NeighborBuild::kBruteForce;
  const Trajectory a = run_trajectory(potential, cells, 80, 40);
  const Trajectory b = run_trajectory(potential, brute, 80, 40);
  EXPECT_TRUE(bitwise_equal(a.state.positions, b.state.positions));
  EXPECT_TRUE(bitwise_equal(a.forces, b.forces));
}

TEST(ReferenceSessionTest, NveDriftBoundedOnTwoThousandAtomBox) {
  // 2000-atom box, cell-list neighbor path: total energy on the shifted-force
  // surface must be conserved to a small fraction of the kinetic scale.
  SystemState state = make_state(200, 300.0, 19);
  const ReferencePotential potential(6.5);
  SessionOptions options;
  options.skin = 0.8;
  ReferenceSession session(potential, options);
  const VelocityVerlet integrator(1.0);
  std::vector<Vec3> forces(state.size());
  double energy = session.compute(state, forces);
  const double initial_total = energy + kinetic_energy(state);
  double max_drift = 0.0;
  for (std::size_t step = 0; step < 150; ++step) {
    energy = integrator.step(state, session, forces);
    max_drift = std::max(
        max_drift, std::abs(energy + kinetic_energy(state) - initial_total));
  }
  const double kinetic_scale = std::max(1.0, kinetic_energy(state));
  EXPECT_LT(max_drift, 0.02 * kinetic_scale);
  // O(N) path sanity: the skin must have been saving topology work.
  EXPECT_LT(session.neighbor_rebuilds(), session.steps());
}

TEST(ReferenceSessionTest, SteadyStateStepsAllocateNothing) {
  SystemState state = make_state(26, 300.0, 23);
  const ReferencePotential potential(6.5);
  hpc::ThreadPool pool(4);
  SessionOptions options;
  options.skin = 0.8;
  options.chunk_atoms = 16;
  options.pool = &pool;
  ReferenceSession session(potential, options);
  std::vector<Vec3> forces(state.size());
  // Warm-up: first compute builds the skeleton and sizes all workspace.
  for (int warm = 0; warm < 3; ++warm) {
    session.compute(state, forces);
    for (auto& r : state.positions) r[0] += 1e-4;
  }
  testsupport::reset_alloc_count();
  for (int step = 0; step < 20; ++step) {
    // Sub-skin drift: refresh-only steps, no topology rebuild.
    for (auto& r : state.positions) r[0] += 1e-4;
    session.compute(state, forces);
  }
  EXPECT_EQ(testsupport::alloc_count(), 0u);
}

TEST(ReferenceSessionTest, RebuildStepsAllocateNothing) {
  // 800 atoms: wide enough for the cell path.  Two saved configurations
  // more than skin/2 apart, so every step of the alternation rebuilds.
  const SystemState a = make_state(80, 300.0, 29);
  SystemState b = a;
  util::Rng rng(37);
  for (Vec3& r : b.positions) {
    for (double& x : r) x += rng.bernoulli(0.5) ? 0.3 : -0.3;  // |move| 0.52 > 0.4
  }
  const ReferencePotential potential(6.5);
  hpc::ThreadPool pool(4);
  for (hpc::ThreadPool* maybe_pool : {static_cast<hpc::ThreadPool*>(nullptr), &pool}) {
    SessionOptions options;
    options.skin = 0.8;
    options.pool = maybe_pool;
    ReferenceSession session(potential, options);
    std::vector<Vec3> forces(a.size());
    session.compute(a, forces);  // warm-up cycle
    session.compute(b, forces);
    const std::size_t rebuilds_before = session.neighbor_rebuilds();
    testsupport::reset_alloc_count();
    for (int step = 0; step < 10; ++step) {
      session.compute(step % 2 == 0 ? a : b, forces);
    }
    const std::size_t allocations = testsupport::alloc_count();
    EXPECT_EQ(allocations, 0u) << (maybe_pool ? "4-thread pool" : "no pool");
    EXPECT_EQ(session.neighbor_rebuilds() - rebuilds_before, 10u);
  }
}

TEST(ReferenceSessionTest, RejectsNonFiniteSkin) {
  const ReferencePotential potential(5.0);
  for (const double skin : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -0.1}) {
    SessionOptions options;
    options.skin = skin;
    EXPECT_THROW(ReferenceSession(potential, options), util::ValueError) << skin;
  }
}

TEST(ReferenceSessionTest, RejectsMismatchedStateOrSpan) {
  const SystemState state = make_state(4, 300.0, 5);
  const ReferencePotential potential(5.0);
  ReferenceSession session(potential, {});
  std::vector<Vec3> forces(state.size());
  session.compute(state, forces);
  SystemState wrong = make_state(5, 300.0, 5);
  std::vector<Vec3> wrong_forces(wrong.size());
  EXPECT_THROW(session.compute(wrong, wrong_forces), util::ValueError);
  std::vector<Vec3> short_span(state.size() - 1);
  EXPECT_THROW(session.compute(state, short_span), util::ValueError);
}

}  // namespace
}  // namespace dpho::md
