#include "dp/md_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "hpc/thread_pool.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "support/alloc_hook.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

bool bitwise_equal(const std::vector<md::Vec3>& a,
                   const std::vector<md::Vec3>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(md::Vec3)) == 0;
}

// One tiny trained model shared by the whole suite (training dominates the
// fixture cost; the sessions under test are cheap).
class NnpSessionSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    md::SimulationConfig sim;
    sim.spec = md::SystemSpec::scaled_system(1);  // 10 atoms
    sim.num_frames = 12;
    sim.equilibration_steps = 200;
    sim.sample_interval = 3;
    sim.seed = 51;
    data_ = new md::LabelledData(md::generate_reference_data(sim, 0.25));

    TrainInput config;
    config.descriptor.rcut = 3.2;
    config.descriptor.rcut_smth = 2.0;
    config.descriptor.neuron = {4, 8};
    config.descriptor.axis_neuron = 3;
    config.descriptor.sel = 24;
    config.fitting.neuron = {12};
    config.learning_rate.start_lr = 0.01;
    config.learning_rate.stop_lr = 0.003;
    config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
    config.training.numb_steps = 40;
    config.training.disp_freq = 40;
    Trainer trainer(config, data_->train, data_->validation);
    trainer.train();
    potential_ = new Potential(trainer.model());
  }
  static void TearDownTestSuite() {
    delete potential_;
    delete data_;
    potential_ = nullptr;
    data_ = nullptr;
  }

  static md::SystemState initial_state(double temperature = 120.0) {
    util::Rng rng(4);
    md::SystemState state =
        md::SystemSpec::scaled_system(1).create_initial_state(temperature, rng);
    state.positions = data_->train.frame(0).positions;
    return state;
  }

  struct Trajectory {
    md::SystemState state;
    std::vector<md::Vec3> forces;
    std::size_t session_steps = 0;
    std::size_t rebuilds = 0;
  };

  static Trajectory run_trajectory(const md::SessionOptions& options,
                                   std::size_t steps) {
    Trajectory out;
    out.state = initial_state();
    auto session = potential_->make_md_session(options);
    const md::VelocityVerlet integrator(0.5);
    out.forces.assign(out.state.size(), md::Vec3{0.0, 0.0, 0.0});
    session->compute(out.state, out.forces);
    for (std::size_t step = 0; step < steps; ++step) {
      integrator.step(out.state, *session, out.forces);
    }
    out.session_steps = session->steps();
    out.rebuilds = session->neighbor_rebuilds();
    return out;
  }

  static md::LabelledData* data_;
  static Potential* potential_;
};

md::LabelledData* NnpSessionSuite::data_ = nullptr;
Potential* NnpSessionSuite::potential_ = nullptr;

TEST_F(NnpSessionSuite, MatchesWholeFramePotentialEvaluate) {
  const md::SystemState state = initial_state();
  auto session = potential_->make_md_session();
  std::vector<md::Vec3> forces(state.size());
  const double energy = session->compute(state, forces);

  md::Frame frame;
  frame.positions = state.positions;
  frame.forces.resize(state.size());
  frame.box_length = state.box_length;
  const md::ForceEnergy reference = potential_->evaluate(frame);
  // Ten atoms are one chunk of one tile: the session runs the very pass
  // Potential::evaluate runs, so the results are IEEE-equal (an isolated
  // atom's zero force may differ in sign only).
  ASSERT_EQ(session->num_tiles(), 1u);
  EXPECT_EQ(energy, reference.energy);
  for (std::size_t i = 0; i < state.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(forces[i][k], reference.forces[i][k])
          << "atom " << i << " component " << k;
    }
  }
}

TEST_F(NnpSessionSuite, RejectsNonFiniteSkin) {
  for (const double skin : {std::nan(""), HUGE_VAL, -1.0}) {
    md::SessionOptions options;
    options.skin = skin;
    EXPECT_THROW(potential_->make_md_session(options), util::ValueError) << skin;
  }
}

TEST_F(NnpSessionSuite, ThreadCountParityBitwise) {
  md::SessionOptions serial;
  serial.chunk_atoms = 2;  // 5 chunks on 10 atoms
  const Trajectory baseline = run_trajectory(serial, 40);
  auto probe = potential_->make_md_session(serial);
  std::vector<md::Vec3> probe_forces(initial_state().size());
  probe->compute(initial_state(), probe_forces);
  EXPECT_GT(probe->num_chunks(), 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    hpc::ThreadPool pool(threads);
    md::SessionOptions parallel = serial;
    parallel.pool = &pool;
    const Trajectory run = run_trajectory(parallel, 40);
    EXPECT_TRUE(bitwise_equal(run.state.positions, baseline.state.positions))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.forces, baseline.forces))
        << threads << " threads";
  }
}

TEST_F(NnpSessionSuite, SessionVsFreshRebuildBitwise) {
  md::SessionOptions skinned;
  skinned.skin = 0.6;
  md::SessionOptions fresh;
  fresh.skin = 0.0;
  const Trajectory a = run_trajectory(skinned, 80);
  const Trajectory b = run_trajectory(fresh, 80);
  EXPECT_TRUE(bitwise_equal(a.state.positions, b.state.positions));
  EXPECT_TRUE(bitwise_equal(a.state.velocities, b.state.velocities));
  EXPECT_TRUE(bitwise_equal(a.forces, b.forces));
  EXPECT_LT(a.rebuilds, a.session_steps);
  EXPECT_EQ(b.rebuilds, b.session_steps);
}

TEST_F(NnpSessionSuite, RecordsStepTimesStepsRebuildsAndLivePairs) {
  // The md.session.* metrics a run's metrics summary reports: one timed step
  // and one step count per compute, one count per rebuild, and every
  // step's live pairs.
  obs::Histogram& step_seconds = obs::metrics().histogram(
      "md.session.step_seconds", obs::BucketLayout::timing_seconds());
  const obs::Counter& steps = obs::metrics().counter("md.session.steps_total");
  const obs::Counter& rebuilds = obs::metrics().counter("md.session.rebuilds_total");
  const obs::Counter& pairs = obs::metrics().counter("md.session.pairs_total");
  const std::uint64_t timed_before = step_seconds.snapshot().count;
  const std::int64_t steps_before = steps.value();
  const std::int64_t rebuilds_before = rebuilds.value();
  const std::int64_t pairs_before = pairs.value();

  md::SystemState state = initial_state();
  md::SessionOptions options;
  options.skin = 0.6;
  auto session = potential_->make_md_session(options);
  const md::VelocityVerlet integrator(0.5);
  std::vector<md::Vec3> forces(state.size());
  session->compute(state, forces);
  std::size_t live_pairs = session->last_live_pairs();
  for (int step = 0; step < 30; ++step) {
    integrator.step(state, *session, forces);
    live_pairs += session->last_live_pairs();
  }
  ASSERT_GT(session->neighbor_rebuilds(), 0u);
  ASSERT_GT(live_pairs, 0u);
  EXPECT_EQ(step_seconds.snapshot().count - timed_before, session->steps());
  EXPECT_EQ(steps.value() - steps_before, static_cast<std::int64_t>(session->steps()));
  EXPECT_EQ(rebuilds.value() - rebuilds_before,
            static_cast<std::int64_t>(session->neighbor_rebuilds()));
  EXPECT_EQ(pairs.value() - pairs_before, static_cast<std::int64_t>(live_pairs));
}

TEST_F(NnpSessionSuite, SteadyStateStepsAllocateNothing) {
  md::SystemState state = initial_state();
  hpc::ThreadPool pool(2);
  md::SessionOptions options;
  options.skin = 0.6;
  options.chunk_atoms = 4;
  options.pool = &pool;
  auto session = potential_->make_md_session(options);
  std::vector<md::Vec3> forces(state.size());
  for (int warm = 0; warm < 3; ++warm) {
    session->compute(state, forces);
    for (auto& r : state.positions) r[0] += 1e-5;
  }
  testsupport::reset_alloc_count();
  for (int step = 0; step < 20; ++step) {
    for (auto& r : state.positions) r[0] += 1e-5;
    session->compute(state, forces);
  }
  EXPECT_EQ(testsupport::alloc_count(), 0u);
}

TEST_F(NnpSessionSuite, RebuildStepsAllocateNothing) {
  // Two saved configurations more than skin/2 apart (the 10-atom box clamps
  // the skin to about 0.34 A), so every step of the alternation rebuilds.
  const md::SystemState a = initial_state();
  md::SystemState b = a;
  util::Rng rng(41);
  for (md::Vec3& r : b.positions) {
    for (double& x : r) x += rng.bernoulli(0.5) ? 0.15 : -0.15;  // |move| 0.26
  }
  hpc::ThreadPool pool(4);
  for (hpc::ThreadPool* maybe_pool : {static_cast<hpc::ThreadPool*>(nullptr), &pool}) {
    md::SessionOptions options;
    options.skin = 0.6;
    options.chunk_atoms = 4;
    options.pool = maybe_pool;
    auto session = potential_->make_md_session(options);
    std::vector<md::Vec3> forces(a.size());
    session->compute(a, forces);  // warm-up cycle
    session->compute(b, forces);
    const std::size_t rebuilds_before = session->neighbor_rebuilds();
    testsupport::reset_alloc_count();
    for (int step = 0; step < 10; ++step) {
      session->compute(step % 2 == 0 ? a : b, forces);
    }
    const std::size_t allocations = testsupport::alloc_count();
    EXPECT_EQ(allocations, 0u) << (maybe_pool ? "4-thread pool" : "no pool");
    EXPECT_EQ(session->neighbor_rebuilds() - rebuilds_before, 10u);
  }
}

TEST_F(NnpSessionSuite, NonFinitePositionMidRunThrowsNamingTheAtom) {
  // A steady step refreshes its tiles from the stale list without checking
  // the coordinates; a non-finite one forces a rebuild instead, and the
  // neighbor build rejects it by name.  The session stays usable.
  const md::SystemState state = initial_state();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    auto session = potential_->make_md_session();
    std::vector<md::Vec3> forces(state.size());
    const double energy = session->compute(state, forces);
    md::SystemState broken = state;
    broken.positions[4][2] = bad;
    try {
      session->compute(broken, forces);
      ADD_FAILURE() << "no error for coordinate " << bad;
    } catch (const util::ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("atom 4 "), std::string::npos) << e.what();
    }
    EXPECT_EQ(session->compute(state, forces), energy);
  }
}

TEST_F(NnpSessionSuite, RejectsWrongAtomCountAndBox) {
  auto session = potential_->make_md_session();
  md::SystemState state = initial_state();
  std::vector<md::Vec3> forces(state.size());
  session->compute(state, forces);

  util::Rng rng(9);
  md::SystemState wrong =
      md::SystemSpec::scaled_system(2).create_initial_state(100.0, rng);
  std::vector<md::Vec3> wrong_forces(wrong.size());
  EXPECT_THROW(session->compute(wrong, wrong_forces), util::ValueError);
  // A fresh session checks the count against the model on its first call.
  EXPECT_THROW(potential_->make_md_session()->compute(wrong, wrong_forces),
               util::ValueError);

  md::SystemState resized = state;
  resized.box_length *= 1.5;
  EXPECT_THROW(session->compute(resized, forces), util::ValueError);
}

// A random-parameter model (no training, small widths) on 800 atoms, more
// than 3 * kTileAtoms.  max_chunks = 3 makes chunks of 266-267 atoms, so
// each chunk runs two tiles into its adjoint buffer; with 2 and 4 busy
// threads the chunks run in 2 and 3 lanes.
class TiledSessionSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(61);
    initial_ = new md::SystemState(
        md::SystemSpec::scaled_system(80).create_initial_state(300.0, rng));
    ModelSpec spec;
    spec.descriptor.rcut = 4.5;
    spec.descriptor.rcut_smth = 2.0;
    spec.descriptor.neuron = {4, 8};
    spec.descriptor.axis_neuron = 3;
    spec.descriptor.sel = 4;  // a small norm, so the forces are not tiny
    spec.fitting.neuron = {12, 12};
    potential_ = new Potential(DeepPotModel(spec, initial_->types, -1.5, 62));
  }
  static void TearDownTestSuite() {
    delete potential_;
    delete initial_;
    potential_ = nullptr;
    initial_ = nullptr;
  }

  static md::SessionOptions options(hpc::ThreadPool* pool, double skin = 0.6) {
    md::SessionOptions out;
    out.max_chunks = 3;
    out.skin = skin;
    out.pool = pool;
    return out;
  }

  struct Trajectory {
    md::SystemState state;
    std::vector<md::Vec3> forces;
  };

  static Trajectory run_trajectory(const md::SessionOptions& session_options,
                                   std::size_t steps) {
    Trajectory out{*initial_, {}};
    auto session = potential_->make_md_session(session_options);
    const md::VelocityVerlet integrator(0.5);
    out.forces.assign(out.state.size(), md::Vec3{0.0, 0.0, 0.0});
    session->compute(out.state, out.forces);
    EXPECT_EQ(session->num_chunks(), 3u);
    EXPECT_EQ(session->num_tiles(), 6u);
    for (std::size_t step = 0; step < steps; ++step) {
      integrator.step(out.state, *session, out.forces);
    }
    return out;
  }

  static md::SystemState* initial_;
  static Potential* potential_;
};

md::SystemState* TiledSessionSuite::initial_ = nullptr;
Potential* TiledSessionSuite::potential_ = nullptr;

TEST_F(TiledSessionSuite, ThreadCountAndSkinParityBitwise) {
  ASSERT_GE(initial_->size(), 3 * MdSession::kTileAtoms);
  const Trajectory baseline = run_trajectory(options(nullptr), 20);
  for (const std::size_t threads : {2u, 4u}) {
    hpc::ThreadPool pool(threads - 1);  // the caller is a busy thread too
    const Trajectory run = run_trajectory(options(&pool), 20);
    EXPECT_TRUE(bitwise_equal(run.state.positions, baseline.state.positions))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.state.velocities, baseline.state.velocities))
        << threads << " threads";
    EXPECT_TRUE(bitwise_equal(run.forces, baseline.forces)) << threads << " threads";
  }
  const Trajectory fresh = run_trajectory(options(nullptr, 0.0), 20);
  EXPECT_TRUE(bitwise_equal(fresh.state.positions, baseline.state.positions));
  EXPECT_TRUE(bitwise_equal(fresh.state.velocities, baseline.state.velocities));
  EXPECT_TRUE(bitwise_equal(fresh.forces, baseline.forces));
}

TEST_F(TiledSessionSuite, SteadyAndRebuildStepsAllocateNothing) {
  hpc::ThreadPool pool(3);
  // Steady steps: tiny moves never trigger the skin.
  {
    md::SystemState state = *initial_;
    auto session = potential_->make_md_session(options(&pool));
    std::vector<md::Vec3> forces(state.size());
    for (int warm = 0; warm < 3; ++warm) {
      session->compute(state, forces);
      for (auto& r : state.positions) r[0] += 1e-5;
    }
    const std::size_t rebuilds_before = session->neighbor_rebuilds();
    testsupport::reset_alloc_count();
    for (int step = 0; step < 10; ++step) {
      for (auto& r : state.positions) r[0] += 1e-5;
      session->compute(state, forces);
    }
    EXPECT_EQ(testsupport::alloc_count(), 0u) << "steady steps";
    EXPECT_EQ(session->neighbor_rebuilds(), rebuilds_before);
  }
  // Rebuild steps: two configurations 0.43 A apart, more than skin / 2.
  const md::SystemState a = *initial_;
  md::SystemState b = a;
  util::Rng rng(63);
  for (md::Vec3& r : b.positions) {
    for (double& x : r) x += rng.bernoulli(0.5) ? 0.25 : -0.25;
  }
  for (hpc::ThreadPool* maybe_pool : {static_cast<hpc::ThreadPool*>(nullptr), &pool}) {
    auto session = potential_->make_md_session(options(maybe_pool));
    std::vector<md::Vec3> forces(a.size());
    session->compute(a, forces);  // warm-up cycle
    session->compute(b, forces);
    const std::size_t rebuilds_before = session->neighbor_rebuilds();
    testsupport::reset_alloc_count();
    for (int step = 0; step < 6; ++step) {
      session->compute(step % 2 == 0 ? a : b, forces);
    }
    EXPECT_EQ(testsupport::alloc_count(), 0u) << (maybe_pool ? "4 threads" : "no pool");
    EXPECT_EQ(session->neighbor_rebuilds() - rebuilds_before, 6u);
  }
}

TEST_F(TiledSessionSuite, MatchesWholeFramePotentialEvaluate) {
  // Tiles sum their energies and force adjoints tile by tile, the whole
  // frame in one pass, so the two agree to rounding.
  const Trajectory run = run_trajectory(options(nullptr), 10);
  auto session = potential_->make_md_session(options(nullptr));
  std::vector<md::Vec3> forces(run.state.size());
  const double energy = session->compute(run.state, forces);

  md::Frame frame;
  frame.positions = run.state.positions;
  frame.forces.resize(run.state.size());
  frame.box_length = run.state.box_length;
  const md::ForceEnergy reference = potential_->evaluate(frame);
  EXPECT_TRUE(std::isfinite(energy));
  EXPECT_NEAR(energy, reference.energy,
              1e-9 * std::max(1.0, std::abs(reference.energy)));
  double largest = 0.0;
  for (std::size_t i = 0; i < forces.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(std::isfinite(forces[i][k])) << "atom " << i;
      EXPECT_NEAR(forces[i][k], reference.forces[i][k], 1e-9)
          << "atom " << i << " component " << k;
      largest = std::max(largest, std::abs(forces[i][k]));
    }
  }
  EXPECT_GT(largest, 1e-3);  // the model exerts real forces
}

TEST(FusedTrainingStep, WarmFusedGradientAllocatesNothing) {
  // The trainer's step on the paper's 160-atom frame: one fused 4-frame
  // loss gradient through a warm workspace.  Three species and a 6 A cutoff
  // give every one of the 9 embedding nets pairs, so they and the 3 fitting
  // nets each run all four kernel passes.
  util::Rng rng(71);
  const md::SystemState state =
      md::SystemSpec::scaled_system(16).create_initial_state(300.0, rng);
  ModelSpec spec;
  spec.descriptor.rcut = 6.0;
  spec.descriptor.rcut_smth = 3.0;
  spec.descriptor.neuron = {4, 8};
  spec.descriptor.axis_neuron = 3;
  spec.fitting.neuron = {12};
  const DeepPotModel model(spec, state.types, -1.5, 72);
  const FastGraph graph(model);
  constexpr std::size_t kFrames = 4;
  std::vector<md::Frame> frames(kFrames);
  std::vector<FrameGeometry> geometries(kFrames);
  std::vector<FrameTarget> targets(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    md::Frame& frame = frames[f];
    frame.positions = state.positions;
    for (md::Vec3& r : frame.positions) {
      for (double& x : r) x += rng.uniform(-0.05, 0.05);
    }
    frame.forces.assign(state.size(), md::Vec3{0.1, -0.2, 0.3});
    frame.energy = -1.5 * static_cast<double>(state.size());
    frame.box_length = state.box_length;
    build_frame_geometry(model, frame, model.build_topology(frame), geometries[f]);
    targets[f] = FrameTarget{&geometries[f], frame.energy, frame.forces};
  }
  const LossWeights weights{0.5, 20.0};
  FastWorkspace workspace;
  std::vector<double> grad(model.num_params());
  std::vector<double> losses(kFrames);
  graph.loss_and_grad_fused(targets, weights, workspace, grad, losses);  // warm-up
  testsupport::reset_alloc_count();
  graph.loss_and_grad_fused(targets, weights, workspace, grad, losses);
  EXPECT_EQ(testsupport::alloc_count(), 0u);
  EXPECT_TRUE(std::isfinite(losses[0]));
}

}  // namespace
}  // namespace dpho::dp
