// Pinned bits of the DeepPot-SE kernels at paper widths.
//
// Every dispatch table must reproduce, bit for bit, three outputs of one
// 160-atom melt frame under a paper-width model (25/50/100 embedding nets,
// 240x3 fitting nets, tanh): a Potential::evaluate (energy and forces), one
// FastGraph::loss_and_grad gradient, and the forces of one MdSession::compute
// over several chunks.  Each output is pinned as an FNV-1a hash of its
// doubles.  The frame's positions come from
// SystemSpec::create_initial_state, whose lattice and jitter use no
// transcendental libm call, and tanh comes from the tables' own core, so
// the hashes depend on the kernels alone.
//
// All tables share one set of pins, in every build type: every dense
// element is an FMA chain written out in the source and no simd TU lets the
// compiler contract a*b + c, so neither the table nor the optimization
// level can move a bit.  A level this build or CPU lacks is skipped.
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

/// Runs one dispatch table and restores the state the test found.
class KernelBits : public ::testing::TestWithParam<nn::simd::Level> {
 protected:
  void SetUp() override {
    was_enabled_ = nn::simd::enabled();
    if (!nn::simd::select(GetParam())) {
      GTEST_SKIP() << "this build or CPU has no such table";
    }
  }
  void TearDown() override { nn::simd::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

INSTANTIATE_TEST_SUITE_P(Table, KernelBits,
                         ::testing::Values(nn::simd::Level::kScalar,
                                           nn::simd::Level::kAvx2,
                                           nn::simd::Level::kAvx512),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case nn::simd::Level::kAvx2: return "avx2";
                             case nn::simd::Level::kAvx512: return "avx512";
                             case nn::simd::Level::kScalar: break;
                           }
                           return "scalar";
                         });

TEST_P(KernelBits, HashesArePinned) {
  const KernelHashes got = hash_kernels();
  EXPECT_EQ(got.evaluate, "d86d27c1abb00cce");
  EXPECT_EQ(got.gradient, "16249732d9c59e8a");
  EXPECT_EQ(got.md_forces, "5467d156183507a5");
}

}  // namespace
}  // namespace dpho::dp
