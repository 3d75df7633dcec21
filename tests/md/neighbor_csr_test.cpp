// Randomized parity of the CSR NeighborList against an in-test brute-force
// reference, across both construction regimes (linked cells and the exact
// fallback scan).  The reference recomputes every pair with box.displacement
// -- the same primitive both build paths use -- so pair sets, displacements
// and distances must match exactly, and the CSR structural invariants
// (monotone offsets, flat storage, mean_neighbors) must hold for any input.
// The canonical-order suite pins the stronger claim: both paths, on any
// pool, produce the same rows byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "hpc/thread_pool.hpp"
#include "md/neighbor.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

std::vector<Vec3> random_positions(std::size_t n, double box_length,
                                   util::Rng& rng) {
  std::vector<Vec3> positions(n);
  for (Vec3& r : positions) {
    // Include positions slightly outside [0, L) so wrapping paths are hit.
    r = Vec3{rng.uniform(-0.5, box_length + 0.5),
             rng.uniform(-0.5, box_length + 0.5),
             rng.uniform(-0.5, box_length + 0.5)};
  }
  return positions;
}

/// Brute-force reference rows: for each atom, its neighbors keyed by index.
std::vector<std::map<std::size_t, Neighbor>> brute_rows(
    const Box& box, const std::vector<Vec3>& positions, double cutoff) {
  std::vector<std::map<std::size_t, Neighbor>> rows(positions.size());
  const double cutoff_sq = cutoff * cutoff;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 d = box.displacement(positions[i], positions[j]);
      const double dist_sq = dot(d, d);
      if (dist_sq >= cutoff_sq || dist_sq == 0.0) continue;
      const double dist = std::sqrt(dist_sq);
      rows[i][j] = Neighbor{j, d, dist};
      rows[j][i] = Neighbor{i, Vec3{-d[0], -d[1], -d[2]}, dist};
    }
  }
  return rows;
}

void expect_matches_brute(const Box& box, const std::vector<Vec3>& positions,
                          double cutoff, bool expect_cells) {
  const NeighborList list(box, positions, cutoff);
  EXPECT_EQ(list.used_cells(), expect_cells);
  ASSERT_EQ(list.size(), positions.size());

  const auto reference = brute_rows(box, positions, cutoff);
  std::size_t total = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::span<const Neighbor> row = list.neighbors_of(i);
    ASSERT_EQ(row.size(), reference[i].size()) << "atom " << i;
    total += row.size();
    // Row entries must be unique and, entry for entry, carry the exact
    // displacement/distance the reference computed (both paths call
    // box.displacement, so this is equality, not a tolerance).
    std::vector<std::size_t> seen;
    for (const Neighbor& nb : row) {
      seen.push_back(nb.index);
      const auto it = reference[i].find(nb.index);
      ASSERT_NE(it, reference[i].end()) << "atom " << i << " spurious neighbor "
                                        << nb.index;
      EXPECT_EQ(nb.distance, it->second.distance);
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(nb.displacement[k], it->second.displacement[k])
            << "atom " << i << " neighbor " << nb.index << " axis " << k;
      }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "atom " << i << " has duplicate neighbors";
  }
  if (list.size() > 0) {
    EXPECT_DOUBLE_EQ(list.mean_neighbors(),
                     static_cast<double>(total) /
                         static_cast<double>(list.size()));
  }
}

TEST(NeighborCsr, RandomizedParityInCellRegime) {
  util::Rng rng(101);
  for (int trial = 0; trial < 8; ++trial) {
    const double box_length = rng.uniform(20.0, 40.0);
    const double cutoff = rng.uniform(2.5, box_length / 4.0);
    const std::size_t n = 50 + static_cast<std::size_t>(rng.uniform_int(0, 250));
    const Box box(box_length);
    // box_length / cutoff >= 4 > 3 cells per side: cell path guaranteed.
    expect_matches_brute(box, random_positions(n, box_length, rng), cutoff,
                         /*expect_cells=*/true);
  }
}

TEST(NeighborCsr, RandomizedParityInFallbackRegime) {
  util::Rng rng(202);
  for (int trial = 0; trial < 8; ++trial) {
    const double box_length = rng.uniform(8.0, 14.0);
    // box_length / cutoff < 3: fallback exact scan guaranteed (and the
    // cutoff stays below max_cutoff = L/2).
    const double cutoff = rng.uniform(box_length / 2.9, box_length / 2.1);
    const std::size_t n = 20 + static_cast<std::size_t>(rng.uniform_int(0, 120));
    const Box box(box_length);
    expect_matches_brute(box, random_positions(n, box_length, rng), cutoff,
                         /*expect_cells=*/false);
  }
}

/// Row for row, entry for entry: order, index, displacement and distance
/// bytes.
void expect_bytewise_equal(const NeighborList& got, const NeighborList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::span<const Neighbor> row = got.neighbors_of(i);
    const std::span<const Neighbor> expected = want.neighbors_of(i);
    ASSERT_EQ(row.size(), expected.size()) << "atom " << i;
    if (row.empty()) continue;  // an empty list's data() may be null
    ASSERT_EQ(std::memcmp(row.data(), expected.data(), row.size_bytes()), 0)
        << "atom " << i;
    for (std::size_t k = 1; k < row.size(); ++k) {
      ASSERT_LT(row[k - 1].index, row[k].index) << "atom " << i;
    }
  }
}

TEST(NeighborCsr, CellListEqualsExactScanBytewiseOnAnyPool) {
  // 1 (no pool), 2 and 4 busy threads: the caller claims blocks too.  Up
  // to 1,500 atoms span many fill blocks.
  hpc::ThreadPool two(1), four(3);
  const std::vector<hpc::ThreadPool*> pools = {nullptr, &two, &four};
  util::Rng rng(303);
  NeighborList reused;
  for (int trial = 0; trial < 12; ++trial) {
    const double box_length = rng.uniform(20.0, 40.0);
    const double cutoff = rng.uniform(2.5, box_length / 3.2);
    const std::size_t n = 100 + static_cast<std::size_t>(rng.uniform_int(0, 1400));
    const Box box(box_length);
    const std::vector<Vec3> positions = random_positions(n, box_length, rng);
    const NeighborList exact(box, positions, cutoff, NeighborBuild::kBruteForce);
    ASSERT_FALSE(exact.used_cells());
    for (hpc::ThreadPool* pool : pools) {
      const NeighborList cells(box, positions, cutoff, NeighborBuild::kCells, pool);
      ASSERT_TRUE(cells.used_cells());
      expect_bytewise_equal(cells, exact);
      expect_bytewise_equal(
          NeighborList(box, positions, cutoff, NeighborBuild::kBruteForce, pool),
          exact);
      reused.build(box, positions, cutoff, NeighborBuild::kCells, pool);
      expect_bytewise_equal(reused, exact);
    }
  }
}

TEST(NeighborCsr, TinyCutoffCapsTheGridAndEqualsExactScan) {
  // L / cutoff alone would ask for 1,000 cells per side (10^9 bins) at
  // 0.05 A in a 50 A box, and for more than size_t holds at 1e-300 A.  The
  // grid is capped near cbrt(n) instead; rows are the exact scan's.
  util::Rng rng(404);
  const double box_length = 50.0;
  const Box box(box_length);
  std::vector<Vec3> positions = random_positions(400, box_length, rng);
  // Partners 0.01-0.02 A and 5e-7 A away, so the tiny cutoffs see pairs.
  for (std::size_t k = 0; k < 40; ++k) {
    const Vec3 r = positions[k];
    positions.push_back(Vec3{r[0] + 0.01, r[1] + rng.uniform(-0.01, 0.01), r[2]});
  }
  positions.push_back(Vec3{positions[0][0] + 5e-7, positions[0][1], positions[0][2]});
  for (const double cutoff : {0.05, 1e-6, 1e-300}) {
    SCOPED_TRACE("cutoff " + std::to_string(cutoff));
    const NeighborList exact(box, positions, cutoff, NeighborBuild::kBruteForce);
    for (const NeighborBuild mode : {NeighborBuild::kCells, NeighborBuild::kAuto}) {
      const NeighborList cells(box, positions, cutoff, mode);
      EXPECT_TRUE(cells.used_cells());
      expect_bytewise_equal(cells, exact);
    }
  }
  const NeighborList list(box, positions, 0.05);
  EXPECT_EQ(list.neighbors_of(0).size(), 2u);  // the 0.01 A and 5e-7 A partners
}

TEST(NeighborCsr, CoincidentAndIsolatedAtoms) {
  const Box box(20.0);
  // Two coincident atoms (zero distance is excluded), one pair, one isolate.
  const std::vector<Vec3> positions = {
      {5, 5, 5}, {5, 5, 5}, {10, 10, 10}, {10.5, 10, 10}, {1, 18, 3}};
  const NeighborList list(box, positions, 2.0);
  EXPECT_TRUE(list.neighbors_of(0).empty());
  EXPECT_TRUE(list.neighbors_of(1).empty());
  ASSERT_EQ(list.neighbors_of(2).size(), 1u);
  EXPECT_EQ(list.neighbors_of(2)[0].index, 3u);
  ASSERT_EQ(list.neighbors_of(3).size(), 1u);
  EXPECT_EQ(list.neighbors_of(3)[0].index, 2u);
  EXPECT_TRUE(list.neighbors_of(4).empty());
  EXPECT_DOUBLE_EQ(list.mean_neighbors(), 2.0 / 5.0);
}

}  // namespace
}  // namespace dpho::md
