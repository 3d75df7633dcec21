// Pinned bits of the DeepPot-SE kernels at paper widths.
//
// Each dispatch table must reproduce, bit for bit, three outputs of one
// 160-atom melt frame under a paper-width model (25/50/100 embedding nets,
// 240x3 fitting nets, tanh): a Potential::evaluate (energy and forces), one
// FastGraph::loss_and_grad gradient, and the forces of one MdSession::compute
// over several chunks.  Each output is pinned as an FNV-1a hash of its
// doubles.  The frame's positions come from
// SystemSpec::create_initial_state, whose lattice and jitter use no
// transcendental libm call, and tanh comes from the tables' own core, so
// the hashes depend on the kernels alone.
//
// The scalar table is pinned in every build.  The AVX2 table is pinned only
// in optimized builds: GCC contracts the AVX2 kernels' scalar tails
// (a * b + c) into FMAs at -O1 and above but not at -O0, so the Debug-built
// sanitizer presets round those tails differently.
//
// A change that keeps every kernel bit (a retiling, a new dispatch level
// that matches an old one) must pass these unchanged.  A declared bit change
// updates the pins from the failure messages, which print each new hash.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/md_session.hpp"
#include "dp/potential.hpp"
#include "md/system.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace dpho::dp {
namespace {

/// 64-bit FNV-1a over the little-endian bytes of a stream of doubles.
class Fnv1a {
 public:
  void add(double value) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      hash_ = (hash_ ^ (bits & 0xff)) * 0x100000001b3ULL;
    }
  }
  void add(const std::vector<md::Vec3>& vectors) {
    for (const md::Vec3& v : vectors) {
      for (const double x : v) add(x);
    }
  }
  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct KernelHashes {
  std::string evaluate;   // energy, then forces
  std::string gradient;   // loss, then the full parameter gradient
  std::string md_forces;  // energy, then forces
};

/// Runs the three pinned computations on whichever table is active.
KernelHashes hash_kernels() {
  util::Rng rng(19);
  const md::SystemState state =
      md::SystemSpec::paper_system().create_initial_state(498.0, rng);
  TrainInput config;  // paper widths: neuron {25, 50, 100}, fitting 240 x 3
  config.descriptor.rcut_smth = 2.0;
  config.descriptor.activation = nn::Activation::kTanh;
  config.fitting.activation = nn::Activation::kTanh;
  const DeepPotModel model(config, state.types, /*energy_bias_per_atom=*/-3.5,
                           /*seed=*/23);
  md::Frame frame;
  frame.positions = state.positions;
  frame.forces.assign(state.size(), md::Vec3{});
  frame.box_length = state.box_length;

  KernelHashes out;
  const Potential potential = Potential::borrow(model);
  const md::ForceEnergy evaluated = potential.evaluate(frame);
  Fnv1a evaluate;
  evaluate.add(evaluated.energy);
  evaluate.add(evaluated.forces);
  out.evaluate = evaluate.hex();

  // Reference forces that are simple arithmetic on the positions, so the
  // force term of the loss is nonzero on every atom.
  std::vector<md::Vec3> forces_ref(state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      forces_ref[i][k] = 0.05 * (state.positions[i][k] - 0.5 * state.box_length);
    }
  }
  FrameGeometry geometry;
  build_frame_geometry(model, frame, model.build_topology(frame), geometry);
  FastWorkspace workspace;
  std::vector<double> grad(model.num_params());
  const double loss = FastGraph(model).loss_and_grad(
      geometry, /*energy_ref=*/-560.0, forces_ref,
      LossWeights{/*pref_e=*/0.02, /*pref_f=*/1000.0}, workspace, grad);
  Fnv1a gradient;
  gradient.add(loss);
  for (const double g : grad) gradient.add(g);
  out.gradient = gradient.hex();

  const std::unique_ptr<MdSession> session = potential.make_md_session();
  std::vector<md::Vec3> forces(state.size());
  const double energy = session->compute(state, forces);
  EXPECT_GT(session->num_chunks(), 1u);
  Fnv1a md_forces;
  md_forces.add(energy);
  md_forces.add(forces);
  out.md_forces = md_forces.hex();
  return out;
}

/// Restores the dispatch state the test found.
class KernelBits : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = nn::simd::enabled(); }
  void TearDown() override { nn::simd::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(KernelBits, ScalarTableIsPinned) {
  ASSERT_FALSE(nn::simd::set_enabled(false));
  const KernelHashes got = hash_kernels();
  EXPECT_EQ(got.evaluate, "8f93683d55d81b00");
  EXPECT_EQ(got.gradient, "5c8d7c8ef43df611");
  EXPECT_EQ(got.md_forces, "d21af80a85aefa08");
}

TEST_F(KernelBits, Avx2TableIsPinnedInOptimizedBuilds) {
#if !defined(__OPTIMIZE__)
  GTEST_SKIP() << "unoptimized build: the AVX2 tails are not FMA-contracted";
#else
  if (!nn::simd::set_enabled(true)) {
    GTEST_SKIP() << "no AVX2/FMA kernels on this build/CPU";
  }
  const KernelHashes got = hash_kernels();
  EXPECT_EQ(got.evaluate, "20c0e0b87f9c2870");
  EXPECT_EQ(got.gradient, "4f8fbcafce56fb7a");
  EXPECT_EQ(got.md_forces, "c9bd7c6f946432c8");
#endif
}

}  // namespace
}  // namespace dpho::dp
