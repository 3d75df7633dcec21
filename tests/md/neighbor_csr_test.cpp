// Randomized parity of the CSR NeighborList against an in-test brute-force
// reference, across both construction regimes (linked cells and the exact
// fallback scan).  The reference tests every pair with box.displacement --
// the same exact test both build paths end with -- so pair sets must match
// exactly, and the CSR structural invariants (ascending rows split at i,
// pair numbers, mean_neighbors) must hold for any input.  The
// canonical-order suite pins the stronger claim: both paths, on any pool,
// produce the same rows and pair numbers byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
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

/// Brute-force reference rows: for each atom, its neighbors' ids, ascending.
std::vector<std::vector<std::uint32_t>> brute_rows(
    const Box& box, const std::vector<Vec3>& positions, double cutoff) {
  std::vector<std::set<std::uint32_t>> rows(positions.size());
  const double cutoff_sq = cutoff * cutoff;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 d = box.displacement(positions[i], positions[j]);
      const double dist_sq = dot(d, d);
      if (dist_sq >= cutoff_sq || dist_sq == 0.0) continue;
      rows[i].insert(static_cast<std::uint32_t>(j));
      rows[j].insert(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::vector<std::uint32_t>> out;
  for (const auto& row : rows) out.emplace_back(row.begin(), row.end());
  return out;
}

/// Each row splits at its own id into the j < i head and the j > i tail;
/// the tails number the pairs 0, 1, 2, ... in slot order, and each head
/// entry carries the number of the same pair's tail entry.
void expect_pairs_consistent(const NeighborList& list) {
  const std::span<const std::uint32_t> flat = list.flat();
  const std::span<const std::uint32_t> pair_ids = list.pair_ids();
  ASSERT_EQ(pair_ids.size(), flat.size());
  ASSERT_EQ(2 * list.num_pairs(), flat.size());
  std::size_t next_pair = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    ASSERT_LE(list.row_begin(i), list.upper_begin(i));
    ASSERT_LE(list.upper_begin(i), list.row_end(i));
    for (std::size_t k = list.row_begin(i); k < list.row_end(i); ++k) {
      const std::size_t j = flat[k];
      ASSERT_EQ(k < list.upper_begin(i), j < i) << "atom " << i << " slot " << k;
      if (j > i) {
        EXPECT_EQ(pair_ids[k], next_pair++) << "atom " << i << " slot " << k;
        continue;
      }
      const auto row_j = list.neighbors_of(j);
      const auto it = std::lower_bound(row_j.begin(), row_j.end(), i);
      ASSERT_TRUE(it != row_j.end() && *it == i) << "atom " << i << " slot " << k;
      EXPECT_EQ(pair_ids[k], pair_ids[list.row_begin(j) + (it - row_j.begin())])
          << "atom " << i << " slot " << k;
    }
  }
  EXPECT_EQ(next_pair, list.num_pairs());
}

void expect_matches_brute(const Box& box, const std::vector<Vec3>& positions,
                          double cutoff, bool expect_cells) {
  const NeighborList list(box, positions, cutoff);
  EXPECT_EQ(list.used_cells(), expect_cells);
  ASSERT_EQ(list.size(), positions.size());

  const auto reference = brute_rows(box, positions, cutoff);
  std::size_t total = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::span<const std::uint32_t> row = list.neighbors_of(i);
    total += row.size();
    // The row is the reference's id set, ascending (so unique): both paths
    // accept a pair by the same box.displacement test, so this is
    // equality, not a tolerance.
    EXPECT_TRUE(std::equal(row.begin(), row.end(), reference[i].begin(),
                           reference[i].end()))
        << "atom " << i;
  }
  expect_pairs_consistent(list);
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

/// Row for row, entry for entry: order and id bytes, and every pair number.
void expect_bytewise_equal(const NeighborList& got, const NeighborList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::span<const std::uint32_t> row = got.neighbors_of(i);
    const std::span<const std::uint32_t> expected = want.neighbors_of(i);
    ASSERT_EQ(row.size(), expected.size()) << "atom " << i;
    ASSERT_EQ(got.upper_begin(i), want.upper_begin(i)) << "atom " << i;
    if (row.empty()) continue;  // an empty list's data() may be null
    ASSERT_EQ(std::memcmp(row.data(), expected.data(), row.size_bytes()), 0)
        << "atom " << i;
    for (std::size_t k = 1; k < row.size(); ++k) {
      ASSERT_LT(row[k - 1], row[k]) << "atom " << i;
    }
  }
  ASSERT_EQ(got.pair_ids().size(), want.pair_ids().size());
  if (got.pair_ids().empty()) return;
  EXPECT_EQ(std::memcmp(got.pair_ids().data(), want.pair_ids().data(),
                        got.pair_ids().size_bytes()),
            0);
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

TEST(NeighborCsr, PrefilteredCellScanKeepsEveryExactPair) {
  // The cell scan rejects candidates on wrapped coordinates before the
  // exact test.  Pairs straddling the periodic faces a hair inside the
  // cutoff, atoms millions of box lengths from the primary cell, and a
  // cutoff of exactly a third of the box (where the prefilter turns itself
  // off) must all give the exact scan's rows.
  util::Rng rng(505);
  const double box_length = 24.0;
  const Box box(box_length);
  std::vector<Vec3> positions = random_positions(300, box_length, rng);
  for (const double cutoff : {4.0, 6.5, box_length / 3.0}) {
    for (int axis = 0; axis < 3; ++axis) {
      Vec3 near_face{rng.uniform(0.0, box_length), rng.uniform(0.0, box_length),
                     rng.uniform(0.0, box_length)};
      near_face[axis] = 1e-3;
      Vec3 partner = near_face;
      partner[axis] = box_length + 1e-3 - cutoff * (1.0 - 0x1p-50);
      positions.push_back(near_face);
      positions.push_back(partner);
    }
  }
  for (std::size_t k = 0; k < positions.size(); k += 7) {
    const double images[] = {-3e6, -2.0, 1.0, 5e5};
    for (double& x : positions[k]) x += box_length * images[(k / 7 + 1) % 4];
  }
  // Pairs 2^-40 of the cutoff inside it, each end millions of box lengths
  // out: both the exact test and the wrapped coordinates round by ~1e-8 A
  // there, so only the prefilter's margin keeps their verdicts apart.
  for (int pair = 0; pair < 60; ++pair) {
    const double cutoff = pair % 2 == 0 ? 4.0 : 6.5;
    const Vec3 base{rng.uniform(0.0, box_length), rng.uniform(0.0, box_length),
                    rng.uniform(0.0, box_length)};
    Vec3 dir{rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    dir = dir * (cutoff * (1.0 - 0x1p-40) / norm(dir));
    positions.push_back(base + Vec3{-3e6, 5e5, -3e6} * box_length);
    positions.push_back(base + dir + Vec3{5e5, -3e6, 2e6} * box_length);
  }
  for (const double cutoff : {4.0, 6.5, box_length / 3.0}) {
    SCOPED_TRACE("cutoff " + std::to_string(cutoff));
    const NeighborList exact(box, positions, cutoff, NeighborBuild::kBruteForce);
    const NeighborList cells(box, positions, cutoff, NeighborBuild::kCells);
    ASSERT_TRUE(cells.used_cells());
    expect_bytewise_equal(cells, exact);
    expect_pairs_consistent(cells);
  }
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
  EXPECT_EQ(list.neighbors_of(2)[0], 3u);
  ASSERT_EQ(list.neighbors_of(3).size(), 1u);
  EXPECT_EQ(list.neighbors_of(3)[0], 2u);
  EXPECT_TRUE(list.neighbors_of(4).empty());
  EXPECT_DOUBLE_EQ(list.mean_neighbors(), 2.0 / 5.0);
}

}  // namespace
}  // namespace dpho::md
