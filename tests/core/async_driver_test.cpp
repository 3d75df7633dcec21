// The steady-state schedule of core::EvolutionEngine.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace dpho::core {
namespace {

EngineConfig small_config(std::size_t workers = 20, std::size_t budget = 140) {
  EngineConfig config;
  config.mode = ScheduleMode::kSteadyState;
  config.num_workers = workers;
  config.population_size = workers;
  config.total_evaluations = budget;
  return config;
}

TEST(AsyncDriver, CompletesExactBudget) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(), evaluator);
  const RunRecord run = engine.run(1);
  EXPECT_EQ(run.mode, ScheduleMode::kSteadyState);
  EXPECT_EQ(run.total_evaluations(), 140u);
  EXPECT_EQ(run.final_population.size(), 20u);
  EXPECT_GT(run.job_minutes, 0.0);
  // 140 completions over capacity-20 waves: 7 full waves.
  EXPECT_EQ(run.generations.size(), 7u);
  for (const GenerationRecord& wave : run.generations) {
    EXPECT_EQ(wave.evaluated.size(), 20u);
  }
}

TEST(AsyncDriver, DeterministicForSeed) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine a(small_config(), evaluator);
  EvolutionEngine b(small_config(), evaluator);
  const RunRecord ra = a.run(5);
  const RunRecord rb = b.run(5);
  const std::vector<EvalRecord> ea_ = ra.all_evaluations();
  const std::vector<EvalRecord> eb = rb.all_evaluations();
  ASSERT_EQ(ea_.size(), eb.size());
  for (std::size_t i = 0; i < ea_.size(); ++i) {
    EXPECT_EQ(ea_[i].fitness, eb[i].fitness);
    EXPECT_EQ(ea_[i].uuid, eb[i].uuid);
  }
  EXPECT_DOUBLE_EQ(ra.job_minutes, rb.job_minutes);
}

TEST(AsyncDriver, QualityImprovesOverCompletions) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(30, 300), evaluator);
  const RunRecord run = engine.run(3);
  const std::vector<EvalRecord> evaluations = run.all_evaluations();
  const auto median_force = [&](std::size_t begin, std::size_t end) {
    std::vector<double> forces;
    for (std::size_t i = begin; i < end; ++i) {
      if (evaluations[i].status == ea::EvalStatus::kOk) {
        forces.push_back(evaluations[i].fitness[1]);
      }
    }
    return util::quantile(forces, 0.5);
  };
  EXPECT_LT(median_force(200, 300), median_force(0, 100));
}

TEST(AsyncDriver, HighUtilizationDespiteHeterogeneousRuntimes) {
  // Training runtimes vary with rcut (~30-80 min); without a generational
  // barrier the workers stay almost always busy.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(25, 250), evaluator);
  const RunRecord run = engine.run(7);
  EXPECT_GT(run.busy_fraction, 0.9);
}

TEST(AsyncDriver, FasterThanGenerationalAtEqualBudget) {
  // Same evaluator, same worker count, same 7x-pop budget: the steady-state
  // deployment finishes in less simulated wall clock than the generational
  // one (which pays max-of-wave at every generation).
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  const std::size_t workers = 40;

  EngineConfig generational;
  generational.population_size = workers;
  generational.generations = 6;
  generational.farm.real_threads = 2;
  const RunRecord sync_run = EvolutionEngine(generational, evaluator).run(9);

  const RunRecord async_run =
      EvolutionEngine(small_config(workers, workers * 7), evaluator).run(9);

  EXPECT_LT(async_run.job_minutes, sync_run.job_minutes);
}

TEST(AsyncDriver, FailuresGetMaxIntAndAreCounted) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(20, 200), evaluator);
  const RunRecord run = engine.run(11);
  std::size_t observed = 0;
  for (const EvalRecord& record : run.all_evaluations()) {
    if (record.status != ea::EvalStatus::kOk) {
      ++observed;
      EXPECT_DOUBLE_EQ(record.fitness[0], ea::kFailureFitness);
    }
  }
  EXPECT_EQ(observed, run.total_failures());
}

TEST(AsyncDriver, WaveMakespansPartitionTheJobClock) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(), evaluator);
  const RunRecord run = engine.run(13);
  // Waves are chunks of completions in delivery order; their makespans tile
  // the session, so they sum to (at most) the job clock.
  double wave_sum = 0.0;
  for (const GenerationRecord& wave : run.generations) {
    EXPECT_GE(wave.makespan_minutes, 0.0);
    wave_sum += wave.makespan_minutes;
  }
  EXPECT_LE(wave_sum, run.job_minutes + 1e-9);
  EXPECT_GT(wave_sum, 0.0);
}

TEST(AsyncDriver, Validation) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig zero_population = small_config();
  zero_population.population_size = 0;
  EXPECT_THROW(EvolutionEngine(zero_population, evaluator), util::ValueError);
  // num_workers == 0 means one worker per archive slot, not zero workers.
  EngineConfig default_workers = small_config();
  default_workers.num_workers = 0;
  EXPECT_NO_THROW(EvolutionEngine(default_workers, evaluator));
  EngineConfig tiny_budget = small_config(20, 10);
  EXPECT_THROW(EvolutionEngine(tiny_budget, evaluator), util::ValueError);
}

}  // namespace
}  // namespace dpho::core
