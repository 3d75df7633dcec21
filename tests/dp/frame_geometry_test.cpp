// FrameGeometry, the kernels' one pair layout: build_topology hands out the
// plain CSR neighbor list at the model's cutoff, build_frame_geometry derives
// every pair from that list's displacements and refuses a list built for
// another model or a frame with a non-finite coordinate, and geometries
// built concurrently (as the trainer builds its per-dataset cache) equal
// serial builds.
#include <gtest/gtest.h>

#include <limits>
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
    ASSERT_EQ(list.neighbors_of(i).size(), fresh.neighbors_of(i).size()) << "atom " << i;
    for (std::size_t n = 0; n < list.neighbors_of(i).size(); ++n) {
      const md::Neighbor& got = list.neighbors_of(i)[n];
      const md::Neighbor& want = fresh.neighbors_of(i)[n];
      EXPECT_EQ(got.index, want.index);
      for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(got.displacement[k], want.displacement[k]);
    }
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
  // Every pair is its list row's displacement run through store_pair, with
  // no re-derivation from the positions.
  FrameGeometry expect;
  expect.resize_pairs(1);
  for (std::size_t p = 0; p < geometry.size(); ++p) {
    const std::uint32_t i = geometry.center[p];
    const md::Neighbor* row = nullptr;
    for (const md::Neighbor& nb : list.neighbors_of(i)) {
      if (nb.index == geometry.j[p]) row = &nb;
    }
    ASSERT_NE(row, nullptr) << "pair " << p;
    ASSERT_TRUE(expect.store_pair(0, i, geometry.j[p], row->displacement, model.switching()));
    EXPECT_EQ(geometry.r[p], expect.r[0]);
    EXPECT_EQ(geometry.s[p], expect.s[0]);
    EXPECT_EQ(geometry.ds_dr[p], expect.ds_dr[0]);
    EXPECT_EQ(geometry.ux[p], expect.ux[0]);
    EXPECT_EQ(geometry.uy[p], expect.uy[0]);
    EXPECT_EQ(geometry.uz[p], expect.uz[0]);
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
  // The list comes from the finite frame: the neighbor build itself casts a
  // non-finite cell coordinate to an integer, which is undefined behaviour.
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
