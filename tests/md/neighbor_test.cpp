#include "md/neighbor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

std::vector<Vec3> random_positions(std::size_t n, double box_length, util::Rng& rng) {
  std::vector<Vec3> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(Vec3{rng.uniform(0, box_length), rng.uniform(0, box_length),
                             rng.uniform(0, box_length)});
  }
  return positions;
}

std::set<std::pair<std::size_t, std::size_t>> pair_set(const NeighborList& list) {
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (const std::size_t j : list.neighbors_of(i)) {
      pairs.insert({std::min(i, j), std::max(i, j)});
    }
  }
  return pairs;
}

TEST(NeighborList, SimplePair) {
  const Box box(10.0);
  const std::vector<Vec3> positions = {{1, 1, 1}, {2, 1, 1}, {8, 8, 8}};
  const NeighborList list(box, positions, 2.0);
  ASSERT_EQ(list.neighbors_of(0).size(), 1u);
  EXPECT_EQ(list.neighbors_of(0)[0], 1u);
  EXPECT_DOUBLE_EQ(box.distance(positions[0], positions[list.neighbors_of(0)[0]]), 1.0);
  EXPECT_TRUE(list.neighbors_of(2).empty());
}

TEST(NeighborList, Symmetry) {
  util::Rng rng(1);
  const Box box(12.0);
  const NeighborList list(box, random_positions(60, 12.0, rng), 3.5);
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (const std::size_t j : list.neighbors_of(i)) {
      const auto reverse = list.neighbors_of(j);
      const bool found = std::find(reverse.begin(), reverse.end(), i) != reverse.end();
      EXPECT_TRUE(found) << i << "<->" << j;
    }
  }
}

TEST(NeighborList, FindsPairsAcrossPeriodicBoundary) {
  const Box box(10.0);
  const std::vector<Vec3> positions = {{0.2, 5.0, 5.0}, {9.8, 5.0, 5.0}};
  const NeighborList list(box, positions, 1.0);
  ASSERT_EQ(list.neighbors_of(0).size(), 1u);
  ASSERT_EQ(list.neighbors_of(0)[0], 1u);
  const Vec3 d = box.displacement(positions[0], positions[1]);
  EXPECT_NEAR(norm(d), 0.4, 1e-12);
  EXPECT_NEAR(d[0], -0.4, 1e-12);
}

TEST(NeighborList, CellListMatchesBruteForce) {
  // Box large enough relative to cutoff that the cell path is taken.
  util::Rng rng(2);
  const Box box(30.0);
  const auto positions = random_positions(400, 30.0, rng);
  const NeighborList cells(box, positions, 3.0);
  EXPECT_TRUE(cells.used_cells());

  // Brute-force reference on a tighter box/cutoff ratio path.
  const double cutoff_sq = 9.0;
  std::set<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 d = box.displacement(positions[i], positions[j]);
      if (dot(d, d) < cutoff_sq) expected.insert({i, j});
    }
  }
  EXPECT_EQ(pair_set(cells), expected);
}

TEST(NeighborList, SmallBoxFallsBackToExactScan) {
  util::Rng rng(3);
  const Box box(8.0);
  const auto positions = random_positions(50, 8.0, rng);
  const NeighborList list(box, positions, 3.9);  // < L/2 but L/cutoff ~ 2
  EXPECT_FALSE(list.used_cells());
}

TEST(NeighborList, CutoffLargerThanHalfBoxThrows) {
  const Box box(10.0);
  const std::vector<Vec3> positions = {{1, 1, 1}};
  EXPECT_THROW(NeighborList(box, positions, 5.5), util::ValueError);
  EXPECT_THROW(NeighborList(box, positions, -1.0), util::ValueError);
}

TEST(NeighborList, RejectsNonFiniteCutoff) {
  const Box box(10.0);
  const std::vector<Vec3> positions = {{1, 1, 1}, {2, 1, 1}};
  for (const NeighborBuild mode :
       {NeighborBuild::kAuto, NeighborBuild::kBruteForce, NeighborBuild::kCells}) {
    EXPECT_THROW(NeighborList(box, positions,
                              std::numeric_limits<double>::quiet_NaN(), mode),
                 util::ValueError);
    EXPECT_THROW(NeighborList(box, positions,
                              std::numeric_limits<double>::infinity(), mode),
                 util::ValueError);
  }
  NeighborList list(box, positions, 2.0);
  EXPECT_THROW(list.build(box, positions, std::numeric_limits<double>::quiet_NaN()),
               util::ValueError);
}

TEST(NeighborList, RejectsNonFinitePositionNamingTheAtom) {
  // The check runs before binning, which would cast the coordinate to an
  // integer, and leaves the previous rows in place.
  util::Rng rng(6);
  const Box box(30.0);
  const std::vector<Vec3> finite = random_positions(200, 30.0, rng);
  for (const NeighborBuild mode :
       {NeighborBuild::kAuto, NeighborBuild::kBruteForce, NeighborBuild::kCells}) {
    NeighborList list(box, finite, 3.0, mode);
    const std::vector<std::uint32_t> rows(list.flat().begin(), list.flat().end());
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::vector<Vec3> positions = finite;
      positions[17][2] = bad;
      try {
        list.build(box, positions, 3.0, mode);
        ADD_FAILURE() << "no error for coordinate " << bad;
      } catch (const util::ValueError& e) {
        EXPECT_NE(std::string(e.what()).find("atom 17 "), std::string::npos) << e.what();
      }
      EXPECT_TRUE(std::equal(rows.begin(), rows.end(), list.flat().begin(),
                             list.flat().end()));
    }
  }
}

TEST(NeighborList, DistancesAndDisplacementsConsistent) {
  util::Rng rng(4);
  const Box box(15.0);
  const std::vector<Vec3> positions = random_positions(80, 15.0, rng);
  const NeighborList list(box, positions, 4.0);
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (const std::size_t j : list.neighbors_of(i)) {
      const Vec3 d = box.displacement(positions[i], positions[j]);
      EXPECT_NEAR(norm(d), box.distance(positions[i], positions[j]), 1e-12);
      EXPECT_LT(norm(d), 4.0);
      EXPECT_GT(norm(d), 0.0);
    }
  }
}

TEST(NeighborList, MeanNeighborsMatchesDensityEstimate) {
  util::Rng rng(5);
  const double box_length = 24.0;
  const double cutoff = 3.0;
  const std::size_t n = 1200;
  const Box box(box_length);
  const NeighborList list(box, random_positions(n, box_length, rng), cutoff);
  const double density = static_cast<double>(n) / std::pow(box_length, 3);
  const double expected = density * 4.0 / 3.0 * 3.14159265358979 * std::pow(cutoff, 3);
  EXPECT_NEAR(list.mean_neighbors(), expected, expected * 0.15);
}

TEST(NeighborList, EmptyPositions) {
  const Box box(10.0);
  const NeighborList list(box, {}, 2.0);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_DOUBLE_EQ(list.mean_neighbors(), 0.0);
}

}  // namespace
}  // namespace dpho::md
