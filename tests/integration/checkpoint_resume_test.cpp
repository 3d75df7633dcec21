// Kill-and-resume integration tests: a run halted after generation k and
// resumed from its checkpoint must produce a RunRecord bit-identical to the
// uninterrupted run (compared through the lossless JSON round-trip).
#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::core {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.population_size = 8;
  config.generations = 4;
  config.farm.real_threads = 2;
  return config;
}

std::string dump(const RunRecord& run) { return runs_to_json({run}).dump(); }

/// Guards against the resume path silently falling back to a fresh run (which
/// would also match the uninterrupted record): the checkpoint must load and
/// cover exactly the halted generations.
void expect_checkpoint_at(const std::filesystem::path& dir, std::size_t generation) {
  const auto checkpoint = CheckpointManager(dir).load();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->completed_generations, generation);
}

TEST(CheckpointResume, ResumedRunEqualsUninterruptedRun) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  const std::uint64_t seed = 7;

  EngineConfig config = small_config();
  const RunRecord full = EvolutionEngine(config, evaluator).run(seed);

  util::TempDir dir("resume-basic");
  config.checkpoint_dir = dir.path();
  config.halt_after_generation = 2;  // "preempted" after wave 2
  const RunRecord partial = EvolutionEngine(config, evaluator).run(seed);
  EXPECT_EQ(partial.generations.size(), 3u);  // waves 0..2
  expect_checkpoint_at(dir.path(), 2);

  config.halt_after_generation.reset();
  config.resume = true;
  const RunRecord resumed = EvolutionEngine(config, evaluator).run(seed);

  EXPECT_EQ(resumed.generations.size(), full.generations.size());
  EXPECT_EQ(dump(resumed), dump(full));
}

TEST(CheckpointResume, ResumeSurvivesNodeFailures) {
  // The farm RNG stream and node-health map must resume bit-for-bit, or the
  // post-resume failure pattern diverges from the uninterrupted run.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  const std::uint64_t seed = 3;

  EngineConfig config = small_config();
  config.farm.node_failure_probability = 0.02;
  const RunRecord full = EvolutionEngine(config, evaluator).run(seed);

  util::TempDir dir("resume-faults");
  config.checkpoint_dir = dir.path();
  config.halt_after_generation = 1;
  EvolutionEngine(config, evaluator).run(seed);
  expect_checkpoint_at(dir.path(), 1);

  config.halt_after_generation.reset();
  config.resume = true;
  const RunRecord resumed = EvolutionEngine(config, evaluator).run(seed);
  EXPECT_EQ(dump(resumed), dump(full));
}

TEST(CheckpointResume, HaltAtGenerationZeroResumes) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  const std::uint64_t seed = 11;

  EngineConfig config = small_config();
  const RunRecord full = EvolutionEngine(config, evaluator).run(seed);

  util::TempDir dir("resume-gen0");
  config.checkpoint_dir = dir.path();
  config.halt_after_generation = 0;  // killed right after the initial wave
  EvolutionEngine(config, evaluator).run(seed);
  expect_checkpoint_at(dir.path(), 0);

  config.halt_after_generation.reset();
  config.resume = true;
  const RunRecord resumed = EvolutionEngine(config, evaluator).run(seed);
  EXPECT_EQ(dump(resumed), dump(full));
}

TEST(CheckpointResume, ResumeWithoutCheckpointStartsFresh) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_config();
  const RunRecord full = EvolutionEngine(config, evaluator).run(5);

  util::TempDir dir("resume-fresh");
  config.checkpoint_dir = dir.path();
  config.resume = true;  // nothing to resume from: a plain full run
  const RunRecord run = EvolutionEngine(config, evaluator).run(5);
  EXPECT_EQ(dump(run), dump(full));
}

TEST(CheckpointResume, SeedMismatchIsRejected) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_config();
  util::TempDir dir("resume-seed");
  config.checkpoint_dir = dir.path();
  config.halt_after_generation = 1;
  EvolutionEngine(config, evaluator).run(7);

  config.halt_after_generation.reset();
  config.resume = true;
  EvolutionEngine other(config, evaluator);
  EXPECT_THROW(other.run(8), util::ValueError);  // directory belongs to seed 7
}

EngineConfig small_async_config() {
  EngineConfig config;
  config.mode = ScheduleMode::kSteadyState;
  config.population_size = 8;
  config.total_evaluations = 40;  // 5 waves of 8 completions
  return config;
}

hpc::FaultPlan stream_faults() {
  // A kill that forces a retry, a straggler, and a permanent node loss --
  // all inside farm batch 0 (the whole stream session is one batch).
  hpc::FaultPlan plan;
  const auto kill = [](std::size_t task, std::size_t attempt) {
    hpc::FaultEvent event;
    event.kind = hpc::FaultKind::kKillWorker;
    event.batch = 0;
    event.task = task;
    event.attempt = attempt;
    return event;
  };
  plan.events = {kill(2, 1), kill(13, 1), kill(13, 2), kill(13, 3)};
  hpc::FaultEvent straggler;
  straggler.kind = hpc::FaultKind::kStraggler;
  straggler.batch = 0;
  straggler.task = 22;
  straggler.factor = 3.0;
  plan.events.push_back(straggler);
  return plan;
}

TEST(CheckpointResume, SteadyStateResumeMidWaveEqualsUninterrupted) {
  // Satellite of the unified-engine refactor: an async run killed mid-wave
  // (completion 19 of 40 is inside wave 2) with fault injection active must
  // resume to a bit-identical final archive AND bit-identical CSV export.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  const std::uint64_t seed = 13;

  EngineConfig config = small_async_config();
  config.farm.faults = stream_faults();
  const RunRecord full = EvolutionEngine(config, evaluator).run(seed);

  util::TempDir dir("resume-steady");
  config.checkpoint_dir = dir.path();
  config.halt_after_evaluations = 19;  // mid-wave preemption
  const RunRecord partial = EvolutionEngine(config, evaluator).run(seed);
  EXPECT_EQ(partial.generations.size(), 2u);  // waves 0 and 1 closed
  {
    const auto checkpoint = CheckpointManager(dir.path()).load();
    ASSERT_TRUE(checkpoint.has_value());
    EXPECT_EQ(checkpoint->mode, ScheduleMode::kSteadyState);
    EXPECT_EQ(checkpoint->completed_generations, 19u);  // completions so far
    EXPECT_FALSE(checkpoint->in_flight.empty());        // tasks still running
  }

  config.halt_after_evaluations.reset();
  config.resume = true;
  const RunRecord resumed = EvolutionEngine(config, evaluator).run(seed);

  EXPECT_EQ(dump(resumed), dump(full));
  EXPECT_EQ(records_csv({resumed}), records_csv({full}));
}

TEST(CheckpointResume, SteadyStateSeedMismatchIsRejected) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_async_config();
  util::TempDir dir("resume-steady-seed");
  config.checkpoint_dir = dir.path();
  config.halt_after_evaluations = 10;
  EvolutionEngine(config, evaluator).run(7);

  config.halt_after_evaluations.reset();
  config.resume = true;
  EvolutionEngine other(config, evaluator);
  EXPECT_THROW(other.run(8), util::ValueError);  // directory belongs to seed 7
}

TEST(CheckpointResume, ExperimentRunnerResumesEverySeed) {
  // Each seed checkpoints into its own seed-<seed> directory under the
  // engine's checkpoint_dir, in either schedule mode: the generational run
  // halts after wave 1, the steady-state one mid-wave after 13 completions.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;

  EngineConfig generational = small_config();
  generational.generations = 3;
  generational.halt_after_generation = 1;
  EngineConfig steady_state = small_async_config();
  steady_state.halt_after_evaluations = 13;
  for (const auto& [engine, halted_at] :
       {std::pair{generational, std::size_t{1}},
        std::pair{steady_state, std::size_t{13}}}) {
    SCOPED_TRACE(to_string(engine.mode));
    ExperimentConfig config;
    config.engine = engine;
    config.engine.halt_after_generation.reset();
    config.engine.halt_after_evaluations.reset();
    config.seeds = {1, 2};
    const std::vector<RunRecord> full = ExperimentRunner(config, evaluator).run_all();

    util::TempDir dir("resume-experiment");
    config.engine = engine;
    config.engine.checkpoint_dir = dir.path();
    ExperimentRunner(config, evaluator).run_all();
    expect_checkpoint_at(dir.path() / "seed-1", halted_at);
    expect_checkpoint_at(dir.path() / "seed-2", halted_at);

    config.engine.halt_after_generation.reset();
    config.engine.halt_after_evaluations.reset();
    config.engine.resume = true;
    const std::vector<RunRecord> resumed = ExperimentRunner(config, evaluator).run_all();
    EXPECT_EQ(runs_to_json(resumed).dump(), runs_to_json(full).dump());
  }
}

}  // namespace
}  // namespace dpho::core
