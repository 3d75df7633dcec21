// The unified EvolutionEngine: shared per-evaluation seeding, per-birth
// annealing, fault-record fidelity, trace export and the resume checks.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::core {
namespace {

TEST(DeriveEvalSeed, DeterministicAndSensitive) {
  const std::vector<double> genome = {0.1, 0.4, 6.0, 0.5, 1.0, 0.0, 1.0};
  const std::uint64_t seed = derive_eval_seed(42, 3, genome);
  EXPECT_EQ(seed, derive_eval_seed(42, 3, genome));
  EXPECT_NE(seed, derive_eval_seed(43, 3, genome));
  EXPECT_NE(seed, derive_eval_seed(42, 4, genome));
  std::vector<double> other = genome;
  other[2] += 0.5;
  EXPECT_NE(seed, derive_eval_seed(42, 3, other));
}

TEST(EvolutionEngine, SteadyStateRecordsCarryAttemptsAndFailureCause) {
  // Regression: the old async driver's record building dropped attempts and
  // failure_cause.  Script one kill that retries (attempts > 1, still ok) and
  // one task killed on every attempt (permanent node_loss failure).
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;

  EngineConfig config;
  config.mode = ScheduleMode::kSteadyState;
  config.population_size = 10;
  config.total_evaluations = 40;
  const auto kill = [](std::size_t task, std::size_t attempt) {
    hpc::FaultEvent event;
    event.kind = hpc::FaultKind::kKillWorker;
    event.batch = 0;  // the whole stream session is one farm batch
    event.task = task;
    event.attempt = attempt;
    return event;
  };
  config.farm.faults.events = {kill(3, 1),                        // retried
                               kill(7, 1), kill(7, 2), kill(7, 3)};  // lost
  const RunRecord run = EvolutionEngine(config, evaluator).run(5);

  const std::vector<EvalRecord> evaluations = run.all_evaluations();
  ASSERT_EQ(evaluations.size(), 40u);
  std::size_t retried_ok = 0;
  std::size_t node_loss = 0;
  for (const EvalRecord& record : evaluations) {
    if (record.status == ea::EvalStatus::kOk && record.attempts > 1) ++retried_ok;
    if (record.status == ea::EvalStatus::kNodeFailure) {
      EXPECT_EQ(record.failure_cause, "node_loss");
      EXPECT_GE(record.attempts, 3u);
      ++node_loss;
    }
  }
  EXPECT_GE(retried_ok, 1u);
  EXPECT_EQ(node_loss, 1u);
  EXPECT_EQ(run.total_failures(), 1u);
}

TEST(EvolutionEngine, PerBirthAnnealMatchesGenerationalRate) {
  // budget = 3 waves of 10: 20 refill births, so the per-birth schedule ends
  // at factor^(20/10) = factor^2 -- the same sigma a generational run reaches
  // after two selections.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;

  EngineConfig config;
  config.mode = ScheduleMode::kSteadyState;
  config.population_size = 10;
  config.total_evaluations = 30;
  const RunRecord with_anneal = EvolutionEngine(config, evaluator).run(9);

  config.anneal_enabled = false;
  const RunRecord without_anneal = EvolutionEngine(config, evaluator).run(9);

  ASSERT_EQ(with_anneal.generations.size(), 3u);
  const std::vector<double>& final_sigma = with_anneal.generations.back().mutation_std;
  const std::vector<double>& initial_sigma =
      without_anneal.generations.back().mutation_std;
  ASSERT_EQ(final_sigma.size(), initial_sigma.size());
  const double expected = std::pow(config.anneal_factor, 2.0);
  for (std::size_t i = 0; i < final_sigma.size(); ++i) {
    EXPECT_NEAR(final_sigma[i] / initial_sigma[i], expected, 1e-12);
  }
  // Sigma never grows wave over wave; it has strictly shrunk by the end.
  // (All refill births can land before the final completions drain, so the
  // last waves may record the same fully-annealed sigma.)
  for (std::size_t w = 1; w < with_anneal.generations.size(); ++w) {
    EXPECT_LE(with_anneal.generations[w].mutation_std[0],
              with_anneal.generations[w - 1].mutation_std[0]);
  }
  EXPECT_LT(with_anneal.generations.back().mutation_std[0],
            with_anneal.generations.front().mutation_std[0]);
}

TEST(EvolutionEngine, TraceExportWorksInBothModes) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;

  util::TempDir sync_dir("engine-trace-sync");
  EngineConfig sync_config;
  sync_config.population_size = 6;
  sync_config.generations = 1;
  sync_config.farm.real_threads = 2;
  sync_config.trace_dir = sync_dir.path();
  EvolutionEngine(sync_config, evaluator).run(1);
  EXPECT_TRUE(std::filesystem::exists(sync_dir.path() / "trace-gen-0.csv"));
  EXPECT_TRUE(std::filesystem::exists(sync_dir.path() / "trace-gen-1.csv"));
  EXPECT_TRUE(std::filesystem::exists(sync_dir.path() / "gantt-gen-1.txt"));

  util::TempDir async_dir("engine-trace-async");
  EngineConfig async_config;
  async_config.mode = ScheduleMode::kSteadyState;
  async_config.population_size = 6;
  async_config.total_evaluations = 12;
  async_config.trace_dir = async_dir.path();
  EvolutionEngine(async_config, evaluator).run(1);
  EXPECT_TRUE(std::filesystem::exists(async_dir.path() / "trace-stream.csv"));
  EXPECT_TRUE(std::filesystem::exists(async_dir.path() / "gantt-stream.txt"));
}

TEST(EvolutionEngine, ResumeRejectsModeMismatch) {
  // A checkpoint of either schedule must not silently seed a run of the
  // other: each direction throws before any evaluation.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;

  EngineConfig generational;
  generational.population_size = 8;
  generational.generations = 3;
  generational.farm.real_threads = 2;
  EngineConfig steady_state = generational;
  steady_state.mode = ScheduleMode::kSteadyState;
  steady_state.total_evaluations = 32;
  const auto expect_mode_mismatch = [&](const EngineConfig& config) {
    try {
      EvolutionEngine(config, evaluator).run(7);
      ADD_FAILURE() << "resume accepted a checkpoint of the other mode";
    } catch (const util::ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("mode mismatch"), std::string::npos)
          << e.what();
    }
  };

  util::TempDir generational_dir("engine-mode-mismatch-gen");
  generational.checkpoint_dir = generational_dir.path();
  generational.halt_after_generation = 1;
  EvolutionEngine(generational, evaluator).run(7);
  steady_state.checkpoint_dir = generational_dir.path();
  steady_state.resume = true;
  expect_mode_mismatch(steady_state);

  util::TempDir steady_dir("engine-mode-mismatch-steady");
  steady_state.checkpoint_dir = steady_dir.path();
  steady_state.resume = false;
  steady_state.halt_after_evaluations = 12;
  EvolutionEngine(steady_state, evaluator).run(7);
  generational.checkpoint_dir = steady_dir.path();
  generational.halt_after_generation.reset();
  generational.resume = true;
  expect_mode_mismatch(generational);
}

}  // namespace
}  // namespace dpho::core
