// Parity of the analytic fused kernels (dp/fast_graph.hpp) against the
// scalar-tape differentiation oracle, on randomized frames across every
// activation and mixed species.  Three levels are held to agree:
//
//   1. energy + forces          (primal forward + primal reverse)
//   2. the per-frame loss value
//   3. the full loss parameter gradient, including the second-order
//      force term grad_theta(lambda . grad_x E) from forward-over-reverse
//
// The two engines share subgradient conventions (relu/relu6 derivatives are
// 0 at the kink, second derivatives identically 0), so even the kinked
// activations must match to accumulated-rounding accuracy; only summation
// order differs (net-major batches vs neighbor-order tape writes).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/loss.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "frame_harness.hpp"
#include "obs/metrics.hpp"
#include "tape_oracle.hpp"
#include "util/rng.hpp"

namespace dpho::dp {
namespace {

using test_harness::geometry_of;
using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

constexpr std::size_t kAtoms = 8;

class FastGraphParity : public ::testing::TestWithParam<nn::Activation> {};

INSTANTIATE_TEST_SUITE_P(Activations, FastGraphParity,
                         ::testing::Values(nn::Activation::kTanh,
                                           nn::Activation::kSigmoid,
                                           nn::Activation::kSoftplus,
                                           nn::Activation::kRelu,
                                           nn::Activation::kRelu6),
                         [](const auto& param_info) {
                           return nn::to_string(param_info.param);
                         });

TEST_P(FastGraphParity, EnergyAndForcesMatchTape) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 271 + 9);
    const md::Frame frame = random_frame(rng);
    const DeepPotModel model(small_config(GetParam()), random_types(rng), 0.17,
                             seed + 60);
    const md::ForceEnergy analytic = Potential::borrow(model).evaluate(frame);
    const md::ForceEnergy tape = oracle::energy_forces(model, frame);
    EXPECT_NEAR(analytic.energy, tape.energy,
                1e-10 * std::max(1.0, std::abs(tape.energy)))
        << "seed " << seed;
    ASSERT_EQ(analytic.forces.size(), tape.forces.size());
    for (std::size_t a = 0; a < kAtoms; ++a) {
      for (int k = 0; k < 3; ++k) {
        EXPECT_NEAR(analytic.forces[a][k], tape.forces[a][k],
                    1e-9 * std::max(1.0, std::abs(tape.forces[a][k])))
            << "seed " << seed << " atom " << a << " axis " << k;
      }
    }
  }
}

TEST_P(FastGraphParity, LossAndParameterGradientMatchTape) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed * 613 + 5);
    md::Frame frame = random_frame(rng);
    const DeepPotModel model(small_config(GetParam()), random_types(rng), 0.0,
                             seed + 21);
    // Non-trivial references: perturbed tape predictions, so the residual
    // lambda (and with it the second-order term) is well away from zero.
    const md::ForceEnergy prediction = oracle::energy_forces(model, frame);
    const double energy_ref = prediction.energy + rng.uniform(-1.0, 1.0);
    std::vector<md::Vec3> forces_ref = prediction.forces;
    for (md::Vec3& f : forces_ref) {
      for (int k = 0; k < 3; ++k) f[k] += rng.uniform(-0.5, 0.5);
    }
    const LossWeights weights{/*pref_e=*/0.3, /*pref_f=*/25.0};

    const oracle::LossGrad tape =
        oracle::loss_and_grad(model, frame, energy_ref, forces_ref, weights);

    const FastGraph fast(model);
    FastWorkspace workspace;
    const FrameGeometry geometry = geometry_of(model, frame);
    std::vector<double> grad(model.num_params(), -7.0);  // must be overwritten
    const double loss = fast.loss_and_grad(geometry, energy_ref, forces_ref,
                                           weights, workspace, grad);

    EXPECT_NEAR(loss, tape.loss, 1e-9 * std::max(1.0, std::abs(tape.loss)))
        << "seed " << seed;
    ASSERT_EQ(grad.size(), tape.grad.size());
    double scale = 1.0;
    for (const double g : tape.grad) scale = std::max(scale, std::abs(g));
    for (std::size_t p = 0; p < grad.size(); ++p) {
      EXPECT_NEAR(grad[p], tape.grad[p], 1e-8 * scale)
          << "seed " << seed << " param " << p;
    }
  }
}

TEST(FastGraphParityDetail, EnergyOnlyLossSkipsSecondOrderTerm) {
  // pref_f = 0: the gradient reduces to the pure energy term; must still
  // match the tape (which differentiates the same degenerate loss).
  util::Rng rng(404);
  const md::Frame frame = random_frame(rng);
  const DeepPotModel model(small_config(nn::Activation::kTanh),
                           random_types(rng), 0.0, 11);
  const std::vector<md::Vec3> forces_ref(kAtoms, md::Vec3{});
  const LossWeights weights{/*pref_e=*/1.0, /*pref_f=*/0.0};

  const oracle::LossGrad tape =
      oracle::loss_and_grad(model, frame, -3.0, forces_ref, weights);
  const FastGraph fast(model);
  FastWorkspace workspace;
  const FrameGeometry geometry = geometry_of(model, frame);
  std::vector<double> grad(model.num_params());
  const double loss =
      fast.loss_and_grad(geometry, -3.0, forces_ref, weights, workspace, grad);
  EXPECT_NEAR(loss, tape.loss, 1e-10 * std::max(1.0, std::abs(tape.loss)));
  for (std::size_t p = 0; p < grad.size(); ++p) {
    EXPECT_NEAR(grad[p], tape.grad[p], 1e-10) << "param " << p;
  }
}

TEST(FastGraphParityDetail, WorkspaceReuseAcrossFramesIsClean) {
  // The whole point of the arena is reuse: running frame A's gradient through
  // a workspace then frame B's must give bit-identical results to a fresh
  // workspace (no stale-state leakage between frames of different sizes).
  util::Rng rng(77);
  const std::vector<md::Species> types = random_types(rng);
  const DeepPotModel model(small_config(nn::Activation::kTanh), types, 0.0, 3);
  const LossWeights weights{0.2, 10.0};
  const std::vector<md::Vec3> forces_ref(kAtoms, md::Vec3{0.1, -0.2, 0.3});

  const md::Frame frame_a = random_frame(rng);
  const md::Frame frame_b = random_frame(rng);
  const FastGraph fast(model);
  const FrameGeometry geometry_a = geometry_of(model, frame_a);
  const FrameGeometry geometry_b = geometry_of(model, frame_b);

  FastWorkspace fresh;
  std::vector<double> grad_fresh(model.num_params());
  const double loss_fresh = fast.loss_and_grad(geometry_b, 1.0, forces_ref,
                                               weights, fresh, grad_fresh);

  FastWorkspace reused;
  std::vector<double> scratch_grad(model.num_params());
  fast.loss_and_grad(geometry_a, -2.0, forces_ref, weights, reused, scratch_grad);
  std::vector<double> grad_reused(model.num_params());
  const double loss_reused = fast.loss_and_grad(geometry_b, 1.0, forces_ref,
                                                weights, reused, grad_reused);

  EXPECT_EQ(loss_fresh, loss_reused);
  EXPECT_EQ(grad_fresh, grad_reused);
}

TEST(FastGraphParityDetail, OneGradientRecordsOnePrimalAndOneTangentPass) {
  // The dp.kernels.* metrics a training's metrics summary reports.
  util::Rng rng(83);
  const DeepPotModel model(small_config(nn::Activation::kTanh), random_types(rng), 0.0, 3);
  const FrameGeometry geometry = geometry_of(model, random_frame(rng));
  ASSERT_GT(geometry.size(), 0u);
  const FastGraph fast(model);
  FastWorkspace workspace;
  std::vector<double> grad(model.num_params());
  const std::vector<md::Vec3> forces_ref(kAtoms, md::Vec3{0.1, -0.2, 0.3});

  obs::Histogram& primal = obs::metrics().histogram(
      "dp.kernels.primal_seconds", obs::BucketLayout::timing_seconds());
  obs::Histogram& tangent = obs::metrics().histogram(
      "dp.kernels.tangent_seconds", obs::BucketLayout::timing_seconds());
  const obs::Counter& frames = obs::metrics().counter("dp.kernels.frames_total");
  const obs::Counter& pairs = obs::metrics().counter("dp.kernels.pairs_total");
  const std::uint64_t primal_before = primal.snapshot().count;
  const std::uint64_t tangent_before = tangent.snapshot().count;
  const std::int64_t frames_before = frames.value();
  const std::int64_t pairs_before = pairs.value();
  fast.loss_and_grad(geometry, -3.0, forces_ref, LossWeights{0.2, 10.0}, workspace, grad);
  EXPECT_EQ(primal.snapshot().count - primal_before, 1u);
  EXPECT_EQ(tangent.snapshot().count - tangent_before, 1u);
  EXPECT_EQ(frames.value() - frames_before, 1);
  EXPECT_EQ(pairs.value() - pairs_before, static_cast<std::int64_t>(geometry.size()));
}

TEST(FastGraphParityDetail, FusedMultiFrameMatchesPerFrameCalls) {
  // The fused pass stacks K frames into taller per-net batches.  Every row
  // operation is per-sample independent, so each frame's loss must come out
  // bit-identical to a single-frame call; the fused gradient is the sum of
  // the per-frame gradients, accumulated in net-major order (tolerance-level
  // equal to summing the individual gradients).
  util::Rng rng(505);
  const std::vector<md::Species> types = random_types(rng);
  const DeepPotModel model(small_config(nn::Activation::kTanh), types, 0.05, 19);
  const FastGraph fast(model);
  const LossWeights weights{0.4, 18.0};

  constexpr std::size_t kFrames = 5;
  std::vector<md::Frame> frames;
  std::vector<FrameGeometry> geometries(kFrames);
  std::vector<std::vector<md::Vec3>> forces_refs(kFrames);
  std::vector<double> energy_refs(kFrames);
  std::vector<FrameTarget> targets(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    frames.push_back(random_frame(rng));
    geometries[f] = geometry_of(model, frames[f]);
    energy_refs[f] = rng.uniform(-2.0, 2.0);
    forces_refs[f].assign(kAtoms, md::Vec3{});
    for (md::Vec3& fr : forces_refs[f]) {
      for (int k = 0; k < 3; ++k) fr[k] = rng.uniform(-0.5, 0.5);
    }
    targets[f] = FrameTarget{&geometries[f], energy_refs[f], forces_refs[f]};
  }

  // Per-frame reference.
  FastWorkspace single_ws;
  std::vector<double> single_losses(kFrames);
  std::vector<double> grad_sum(model.num_params(), 0.0);
  std::vector<double> grad_one(model.num_params());
  for (std::size_t f = 0; f < kFrames; ++f) {
    single_losses[f] =
        fast.loss_and_grad(geometries[f], energy_refs[f], forces_refs[f],
                           weights, single_ws, grad_one);
    for (std::size_t p = 0; p < grad_sum.size(); ++p) grad_sum[p] += grad_one[p];
  }

  FastWorkspace fused_ws;
  std::vector<double> fused_losses(kFrames);
  std::vector<double> fused_grad(model.num_params(), -3.0);  // must be overwritten
  fast.loss_and_grad_fused(targets, weights, fused_ws, fused_grad, fused_losses);

  double scale = 1.0;
  for (const double g : grad_sum) scale = std::max(scale, std::abs(g));
  for (std::size_t f = 0; f < kFrames; ++f) {
    EXPECT_DOUBLE_EQ(fused_losses[f], single_losses[f]) << "frame " << f;
  }
  for (std::size_t p = 0; p < fused_grad.size(); ++p) {
    EXPECT_NEAR(fused_grad[p], grad_sum[p], 1e-9 * scale) << "param " << p;
  }

  // Re-running the same fused batch through the same (now warm) workspace
  // must reproduce the result bit for bit.
  std::vector<double> losses_again(kFrames);
  std::vector<double> grad_again(model.num_params());
  fast.loss_and_grad_fused(targets, weights, fused_ws, grad_again, losses_again);
  EXPECT_EQ(losses_again, fused_losses);
  EXPECT_EQ(grad_again, fused_grad);
}

TEST(FastGraphParityDetail, FusedGradientMatchesTapeSum) {
  // End-to-end oracle check of the combined tangent seeding: the fused
  // gradient over K frames equals the sum of the tape's per-frame loss
  // gradients.
  util::Rng rng(606);
  const std::vector<md::Species> types = random_types(rng);
  const DeepPotModel model(small_config(nn::Activation::kSigmoid), types, 0.0, 23);
  const FastGraph fast(model);
  const LossWeights weights{0.25, 30.0};

  constexpr std::size_t kFrames = 3;
  std::vector<md::Frame> frames;
  std::vector<FrameGeometry> geometries(kFrames);
  std::vector<std::vector<md::Vec3>> forces_refs(kFrames);
  std::vector<FrameTarget> targets(kFrames);
  double tape_loss_sum = 0.0;
  std::vector<double> tape_grad_sum(model.num_params(), 0.0);
  for (std::size_t f = 0; f < kFrames; ++f) {
    frames.push_back(random_frame(rng));
    geometries[f] = geometry_of(model, frames[f]);
    const double energy_ref = rng.uniform(-1.0, 1.0);
    forces_refs[f].assign(kAtoms, md::Vec3{});
    for (md::Vec3& fr : forces_refs[f]) {
      for (int k = 0; k < 3; ++k) fr[k] = rng.uniform(-0.4, 0.4);
    }
    targets[f] = FrameTarget{&geometries[f], energy_ref, forces_refs[f]};
    const oracle::LossGrad tape = oracle::loss_and_grad(
        model, frames[f], energy_ref, forces_refs[f], weights);
    tape_loss_sum += tape.loss;
    for (std::size_t p = 0; p < tape_grad_sum.size(); ++p) {
      tape_grad_sum[p] += tape.grad[p];
    }
  }

  FastWorkspace workspace;
  std::vector<double> losses(kFrames);
  std::vector<double> grad(model.num_params());
  fast.loss_and_grad_fused(targets, weights, workspace, grad, losses);

  double loss_sum = 0.0;
  for (const double l : losses) loss_sum += l;
  EXPECT_NEAR(loss_sum, tape_loss_sum,
              1e-9 * std::max(1.0, std::abs(tape_loss_sum)));
  double scale = 1.0;
  for (const double g : tape_grad_sum) scale = std::max(scale, std::abs(g));
  for (std::size_t p = 0; p < grad.size(); ++p) {
    EXPECT_NEAR(grad[p], tape_grad_sum[p], 1e-8 * scale) << "param " << p;
  }
}

TEST(FastGraphParityDetail, GeometryCountsMatchTopologyWithinCutoff) {
  util::Rng rng(31);
  const md::Frame frame = random_frame(rng);
  const std::vector<md::Species> types = random_types(rng);
  const DeepPotModel model(small_config(nn::Activation::kTanh), types, 0.0, 8);
  const md::NeighborList list = model.build_topology(frame);
  FrameGeometry geometry;
  build_frame_geometry(model, frame, list, geometry);

  const md::Box box(frame.box_length);
  std::size_t in_cutoff = 0;
  for (std::size_t i = 0; i < types.size(); ++i) {
    for (const std::uint32_t j : list.neighbors_of(i)) {
      const double r = box.distance(frame.positions[i], frame.positions[j]);
      if (r < model.spec().descriptor.rcut) ++in_cutoff;
    }
  }
  EXPECT_EQ(geometry.size(), in_cutoff);
  EXPECT_EQ(geometry.num_atoms, types.size());
  // Net-major grouping: offsets are monotone and every pair in a net's range
  // actually belongs to that net.
  for (std::size_t net = 0; net < geometry.net_offsets.size() - 1; ++net) {
    EXPECT_LE(geometry.net_offsets[net], geometry.net_offsets[net + 1]);
    for (std::uint32_t p = geometry.net_offsets[net];
         p < geometry.net_offsets[net + 1]; ++p) {
      EXPECT_EQ(DeepPotModel::pair_index(types[geometry.center[p]],
                                         types[geometry.j[p]]),
                net);
    }
  }
}

}  // namespace
}  // namespace dpho::dp
