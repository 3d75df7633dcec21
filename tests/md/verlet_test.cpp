#include "md/neighbor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "md/potential.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

std::vector<Vec3> random_positions(std::size_t n, double box_length, util::Rng& rng) {
  std::vector<Vec3> positions;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(Vec3{rng.uniform(0, box_length), rng.uniform(0, box_length),
                             rng.uniform(0, box_length)});
  }
  return positions;
}

TEST(VerletList, NoRebuildForSmallMoves) {
  util::Rng rng(1);
  const Box box(20.0);
  auto positions = random_positions(50, 20.0, rng);
  VerletList verlet(box, 4.0, 1.0);
  verlet.update(positions);
  EXPECT_EQ(verlet.rebuild_count(), 1u);
  // Moves below skin/2 never trigger a rebuild.
  for (int step = 0; step < 10; ++step) {
    for (auto& r : positions) r = r + Vec3{0.02, -0.01, 0.015};
    verlet.update(positions);
  }
  EXPECT_EQ(verlet.rebuild_count(), 1u);
}

TEST(VerletList, RebuildAfterSkinExceeded) {
  util::Rng rng(2);
  const Box box(20.0);
  auto positions = random_positions(50, 20.0, rng);
  VerletList verlet(box, 4.0, 1.0);
  verlet.update(positions);
  positions[7] = positions[7] + Vec3{0.6, 0.0, 0.0};  // > skin/2
  verlet.update(positions);
  EXPECT_EQ(verlet.rebuild_count(), 2u);
}

TEST(VerletList, PairCoverageNeverMissesTrueCutoffPairs) {
  // After arbitrary sub-threshold moves, every pair within the true cutoff
  // must appear in the (stale) list.
  util::Rng rng(3);
  const Box box(18.0);
  auto positions = random_positions(120, 18.0, rng);
  const double cutoff = 3.5;
  VerletList verlet(box, cutoff, 1.0);
  for (int step = 0; step < 20; ++step) {
    for (auto& r : positions) {
      r = r + Vec3{rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
                   rng.normal(0.0, 0.05)};
    }
    const NeighborList& list = verlet.update(positions);
    // Exact reference at the true cutoff.
    const NeighborList exact(box, positions, cutoff);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const std::set<std::uint32_t> stale(list.neighbors_of(i).begin(),
                                          list.neighbors_of(i).end());
      for (const std::uint32_t j : exact.neighbors_of(i)) {
        EXPECT_TRUE(stale.contains(j))
            << "step " << step << " missing pair " << i << "-" << j;
      }
    }
  }
}

TEST(VerletList, ForcesIdenticalWithAndWithoutVerlet) {
  util::Rng rng(4);
  const SystemSpec spec = SystemSpec::scaled_system(4);
  SystemState state = spec.create_initial_state(400.0, rng);
  const double cutoff = 0.4 * spec.box_length();
  const ReferencePotential pot(cutoff);
  const Box box(state.box_length);
  VerletList verlet(box, cutoff, 0.08 * spec.box_length());

  for (int step = 0; step < 5; ++step) {
    for (auto& r : state.positions) {
      r = r + Vec3{rng.normal(0.0, 0.03), rng.normal(0.0, 0.03),
                   rng.normal(0.0, 0.03)};
    }
    const ForceEnergy direct = pot.compute(state);
    const ForceEnergy stale = pot.compute(state, verlet.update(state.positions));
    EXPECT_NEAR(direct.energy, stale.energy, 1e-10);
    for (std::size_t i = 0; i < state.size(); ++i) {
      for (int k = 0; k < 3; ++k) {
        EXPECT_NEAR(direct.forces[i][k], stale.forces[i][k], 1e-10);
      }
    }
  }
  EXPECT_GE(verlet.rebuild_count(), 1u);
}

TEST(VerletList, RebuildTriggersExactlyWhenSkinHalfExceeded) {
  // The skin invariant, randomized: a rebuild happens iff some atom has
  // drifted (minimum-image) more than skin/2 from its position at the last
  // rebuild; between rebuilds update() keeps returning the identical stale
  // CSR content.
  util::Rng rng(7);
  const Box box(20.0);
  auto positions = random_positions(40, 20.0, rng);
  const double skin = 1.0;
  VerletList verlet(box, 4.0, skin);
  verlet.update(positions);
  std::vector<Vec3> reference = positions;  // positions at the last rebuild
  std::size_t expected_rebuilds = 1;
  for (int step = 0; step < 40; ++step) {
    for (auto& r : positions) {
      r = r + Vec3{rng.normal(0.0, 0.12), rng.normal(0.0, 0.12),
                   rng.normal(0.0, 0.12)};
    }
    double max_drift_sq = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const Vec3 d = box.displacement(reference[i], positions[i]);
      max_drift_sq = std::max(max_drift_sq, dot(d, d));
    }
    const bool should_rebuild = max_drift_sq > 0.25 * skin * skin;
    const NeighborList& list = verlet.update(positions);
    if (should_rebuild) {
      ++expected_rebuilds;
      reference = positions;
    }
    ASSERT_EQ(verlet.rebuild_count(), expected_rebuilds) << "step " << step;
    if (!should_rebuild) {
      // Stale list: rebuilt from `reference`, so its rows must match a fresh
      // build at those positions entry for entry.
      const NeighborList fresh(box, reference, verlet.cutoff() + verlet.skin());
      ASSERT_EQ(list.size(), fresh.size());
      for (std::size_t i = 0; i < list.size(); ++i) {
        const auto row = list.neighbors_of(i);
        const auto expected_row = fresh.neighbors_of(i);
        ASSERT_EQ(row.size(), expected_row.size()) << "atom " << i;
        for (std::size_t k = 0; k < row.size(); ++k) EXPECT_EQ(row[k], expected_row[k]);
      }
    }
  }
  EXPECT_GT(expected_rebuilds, 1u);  // the drift magnitude makes this certain
}

TEST(VerletList, ZeroSkinRebuildsOnAnyMove) {
  util::Rng rng(5);
  const Box box(20.0);
  auto positions = random_positions(20, 20.0, rng);
  VerletList verlet(box, 4.0, 0.0);
  verlet.update(positions);
  positions[0][0] += 1e-6;
  verlet.update(positions);
  EXPECT_EQ(verlet.rebuild_count(), 2u);
}

TEST(VerletList, NonFinitePositionRebuildsAndThrows) {
  // A NaN drift is not <= skin^2/4, so it rebuilds, and the build names the
  // atom; before, NaN > skin^2/4 was false and the stale list came back.
  util::Rng rng(8);
  const Box box(20.0);
  const std::vector<Vec3> positions = random_positions(60, 20.0, rng);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    VerletList verlet(box, 4.0, 1.0);
    verlet.update(positions);
    std::vector<Vec3> moved = positions;
    moved[11][1] = bad;
    try {
      verlet.update(moved);
      ADD_FAILURE() << "no error for coordinate " << bad;
    } catch (const util::ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("atom 11 "), std::string::npos) << e.what();
    }
    EXPECT_EQ(verlet.rebuild_count(), 1u);
    verlet.update(positions);  // the last good list is still in place
    EXPECT_EQ(verlet.rebuild_count(), 1u);
  }
}

TEST(VerletList, Validation) {
  const Box box(10.0);
  EXPECT_THROW(VerletList(box, 4.0, -0.1), util::ValueError);
  EXPECT_THROW(VerletList(box, 4.5, 1.0), util::ValueError);  // 5.5 > L/2
}

TEST(VerletList, RejectsNonFiniteCutoffOrSkin) {
  const Box box(10.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(VerletList(box, 3.0, nan), util::ValueError);
  EXPECT_THROW(VerletList(box, 3.0, inf), util::ValueError);
  EXPECT_THROW(VerletList(box, nan, 0.5), util::ValueError);
  EXPECT_THROW(VerletList(box, inf, 0.5), util::ValueError);
}

TEST(VerletList, UndersizedNeighborListRejectedByPotential) {
  util::Rng rng(6);
  const SystemSpec spec = SystemSpec::scaled_system(2);
  const SystemState state = spec.create_initial_state(300.0, rng);
  const ReferencePotential pot(4.0);
  const Box box(state.box_length);
  const NeighborList too_small(box, state.positions, 2.0);
  EXPECT_THROW(pot.compute(state, too_small), util::ValueError);
}

}  // namespace
}  // namespace dpho::md
