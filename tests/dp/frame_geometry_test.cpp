// FrameGeometry, the kernels' one pair layout: build_topology hands out the
// plain CSR neighbor list at the model's cutoff, build_frame_geometry derives
// every pair from that list's ids and the frame's positions -- the same
// bytes as the displacements the list once stored -- and refuses a list
// built for another model or a frame with a non-finite coordinate, and
// geometries built concurrently (as the trainer builds its per-dataset
// cache) equal serial builds.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "frame_harness.hpp"
#include "hpc/parallel.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

using test_harness::geometry_of;
using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

DeepPotModel tiny_model(util::Rng& rng) {
  return DeepPotModel(small_config(nn::Activation::kTanh), random_types(rng), 0.0, 7);
}

TEST(FrameGeometry, BuildTopologyIsTheCsrListAtRcut) {
  util::Rng rng(41);
  const md::Frame frame = random_frame(rng);
  const DeepPotModel model = tiny_model(rng);
  const double rcut = model.spec().descriptor.rcut;
  const md::NeighborList list = model.build_topology(frame);
  const md::NeighborList fresh(md::Box(frame.box_length), frame.positions, rcut);
  EXPECT_EQ(list.cutoff(), rcut);
  ASSERT_EQ(list.size(), fresh.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto got = list.neighbors_of(i);
    const auto want = fresh.neighbors_of(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end())) << "atom " << i;
  }
  md::Frame short_frame = frame;
  short_frame.positions.pop_back();
  EXPECT_THROW(model.build_topology(short_frame), util::ValueError);
}

TEST(FrameGeometry, PairsCarryTheListDisplacement) {
  util::Rng rng(42);
  const md::Frame frame = random_frame(rng);
  const DeepPotModel model = tiny_model(rng);
  const md::NeighborList list = model.build_topology(frame);
  FrameGeometry geometry;
  build_frame_geometry(model, frame, list, geometry);
  ASSERT_GT(geometry.size(), 0u);
  // Every pair is a list row's entry, its displacement taken from the
  // pair's lower id (negated in the higher id's row) and run through
  // store_pair.
  const md::Box box(frame.box_length);
  FrameGeometry expect;
  expect.resize_pairs(1);
  for (std::size_t p = 0; p < geometry.size(); ++p) {
    const std::uint32_t i = geometry.center[p];
    const std::uint32_t j = geometry.j[p];
    const auto row = list.neighbors_of(i);
    ASSERT_NE(std::find(row.begin(), row.end(), j), row.end()) << "pair " << p;
    md::Vec3 d = box.displacement(frame.positions[std::min(i, j)],
                                  frame.positions[std::max(i, j)]);
    if (j < i) d = md::Vec3{-d[0], -d[1], -d[2]};
    ASSERT_TRUE(expect.store_pair(0, i, j, d, model.switching()));
    EXPECT_EQ(geometry.r[p], expect.r[0]);
    EXPECT_EQ(geometry.s[p], expect.s[0]);
    EXPECT_EQ(geometry.ds_dr[p], expect.ds_dr[0]);
    EXPECT_EQ(geometry.ux[p], expect.ux[0]);
    EXPECT_EQ(geometry.uy[p], expect.uy[0]);
    EXPECT_EQ(geometry.uz[p], expect.uz[0]);
  }
}

/// The geometry path before rows held ids only, kept verbatim: each row
/// stored its pairs' displacements, taken once from the lower id and
/// negated in the higher id's row, and the count and fill read them.
void stored_displacement_geometry(const DeepPotModel& model, const md::Frame& frame,
                                  FrameGeometry& out) {
  struct Neighbor {
    std::size_t index;
    md::Vec3 displacement;
  };
  const md::Box box(frame.box_length);
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = types.size();
  const double cutoff = model.spec().descriptor.rcut;
  std::vector<std::map<std::size_t, Neighbor>> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const md::Vec3 d = box.displacement(frame.positions[i], frame.positions[j]);
      const double dist_sq = md::dot(d, d);
      if (dist_sq >= cutoff * cutoff || dist_sq == 0.0) continue;
      rows[i][j] = Neighbor{j, d};
      rows[j][i] = Neighbor{i, md::Vec3{-d[0], -d[1], -d[2]}};
    }
  }
  const SwitchingFunction& switching = model.switching();
  const double rcut = switching.rcut();
  constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;
  out.num_atoms = n;
  out.first_center = 0;
  out.num_centers = n;
  out.net_offsets.assign(kNets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [index, nb] : rows[i]) {
      if (md::norm(nb.displacement) >= rcut) continue;
      ++out.net_offsets[DeepPotModel::pair_index(types[i], types[nb.index]) + 1];
    }
  }
  for (std::size_t net = 0; net < kNets; ++net) {
    out.net_offsets[net + 1] += out.net_offsets[net];
  }
  out.resize_pairs(out.net_offsets.back());
  std::array<std::uint32_t, kNets> cursor;
  std::copy_n(out.net_offsets.begin(), kNets, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [index, nb] : rows[i]) {
      const std::size_t net = DeepPotModel::pair_index(types[i], types[nb.index]);
      if (out.store_pair(cursor[net], static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(nb.index), nb.displacement,
                         switching)) {
        ++cursor[net];
      }
    }
  }
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(FrameGeometry, MatchesTheStoredDisplacementPathBytewise) {
  // Random frames, plus lattice frames whose pairs share coordinates, so
  // displacement components are exact zeros and their signs count.
  util::Rng rng(46);
  const DeepPotModel model = tiny_model(rng);
  std::vector<md::Frame> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(random_frame(rng));
  for (const double spacing : {1.9, 2.3}) {
    md::Frame lattice = random_frame(rng);
    for (std::size_t a = 0; a < lattice.positions.size(); ++a) {
      lattice.positions[a] = md::Vec3{spacing * static_cast<double>(a % 2),
                                      spacing * static_cast<double>(a / 2 % 2),
                                      spacing * static_cast<double>(a / 4)};
    }
    lattice.positions[3][0] -= 7.0;  // an image of a lattice site
    frames.push_back(lattice);
  }
  for (std::size_t f = 0; f < frames.size(); ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    FrameGeometry got, want;
    build_frame_geometry(model, frames[f], model.build_topology(frames[f]), got);
    stored_displacement_geometry(model, frames[f], want);
    ASSERT_GT(got.size(), 0u);
    EXPECT_EQ(got.net_offsets, want.net_offsets);
    EXPECT_EQ(got.center, want.center);
    EXPECT_EQ(got.j, want.j);
    EXPECT_TRUE(same_bytes(got.r, want.r));
    EXPECT_TRUE(same_bytes(got.s, want.s));
    EXPECT_TRUE(same_bytes(got.ds_dr, want.ds_dr));
    EXPECT_TRUE(same_bytes(got.ux, want.ux));
    EXPECT_TRUE(same_bytes(got.uy, want.uy));
    EXPECT_TRUE(same_bytes(got.uz, want.uz));
  }
}

TEST(FrameGeometry, RejectsAListBuiltForAnotherModel) {
  util::Rng rng(43);
  const md::Frame frame = random_frame(rng);
  const DeepPotModel model = tiny_model(rng);
  const md::Box box(frame.box_length);
  const double rcut = model.spec().descriptor.rcut;
  FrameGeometry geometry;
  const md::NeighborList narrower(box, frame.positions, rcut - 0.5);
  EXPECT_THROW(build_frame_geometry(model, frame, narrower, geometry), util::ValueError);
  std::vector<md::Vec3> fewer = frame.positions;
  fewer.pop_back();
  const md::NeighborList short_list(box, fewer, rcut);
  EXPECT_THROW(build_frame_geometry(model, frame, short_list, geometry), util::ValueError);
}

TEST(FrameGeometry, RejectsNonFiniteCoordinate) {
  util::Rng rng(45);
  const md::Frame frame = random_frame(rng);
  const DeepPotModel model = tiny_model(rng);
  // The list comes from the finite frame (the neighbor build rejects a
  // non-finite coordinate itself), so the geometry's own check throws here.
  const md::NeighborList list = model.build_topology(frame);
  FrameGeometry geometry;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    md::Frame broken = frame;
    broken.positions[5][1] = bad;
    try {
      build_frame_geometry(model, broken, list, geometry);
      ADD_FAILURE() << "no error for coordinate " << bad;
    } catch (const util::ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("atom 5 "), std::string::npos) << e.what();
    }
  }
}

TEST(FrameGeometry, ParallelBuildMatchesSerialBuild) {
  util::Rng rng(44);
  const DeepPotModel model = tiny_model(rng);
  std::vector<md::Frame> frames;
  for (int f = 0; f < 6; ++f) frames.push_back(random_frame(rng));
  const auto build = [&](std::size_t f) { return geometry_of(model, frames[f]); };
  const std::vector<FrameGeometry> serial =
      hpc::parallel_map<FrameGeometry>(nullptr, frames.size(), build);
  hpc::ThreadPool pool(3);
  const std::vector<FrameGeometry> threaded =
      hpc::parallel_map<FrameGeometry>(&pool, frames.size(), build);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    EXPECT_EQ(threaded[f].num_atoms, serial[f].num_atoms);
    EXPECT_EQ(threaded[f].net_offsets, serial[f].net_offsets);
    EXPECT_EQ(threaded[f].center, serial[f].center);
    EXPECT_EQ(threaded[f].j, serial[f].j);
    EXPECT_EQ(threaded[f].r, serial[f].r);
    EXPECT_EQ(threaded[f].s, serial[f].s);
    EXPECT_EQ(threaded[f].ds_dr, serial[f].ds_dr);
    EXPECT_EQ(threaded[f].ux, serial[f].ux);
    EXPECT_EQ(threaded[f].uy, serial[f].uy);
    EXPECT_EQ(threaded[f].uz, serial[f].uz);
  }
}

}  // namespace
}  // namespace dpho::dp
