// The generational schedule of core::EvolutionEngine.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dpho::core {
namespace {

EngineConfig small_config(std::size_t pop = 16, std::size_t gens = 3) {
  EngineConfig config;
  config.population_size = pop;
  config.generations = gens;
  config.farm.real_threads = 2;
  return config;
}

TEST(Driver, ProducesExpectedGenerationStructure) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(12, 4), evaluator);
  const RunRecord run = engine.run(1);
  ASSERT_EQ(run.generations.size(), 5u);  // gen 0 + 4
  for (std::size_t g = 0; g < run.generations.size(); ++g) {
    EXPECT_EQ(run.generations[g].generation, static_cast<int>(g));
    EXPECT_EQ(run.generations[g].evaluated.size(), 12u);
  }
  EXPECT_EQ(run.final_population.size(), 12u);
}

TEST(Driver, EveryEvaluatedIndividualHasFitnessAndUuid) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(), evaluator);
  const RunRecord run = engine.run(2);
  std::set<std::string> uuids;
  for (const GenerationRecord& gen : run.generations) {
    for (const EvalRecord& record : gen.evaluated) {
      ASSERT_EQ(record.fitness.size(), 2u);
      EXPECT_EQ(record.genome.size(), 7u);
      uuids.insert(record.uuid);
    }
  }
  // Every individual evaluated exactly once (clones get fresh UUIDs).
  EXPECT_EQ(uuids.size(), 16u * 4u);
}

TEST(Driver, FailuresGetMaxIntFitness) {
  // Crank failure injection so some evaluations fail.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_config(20, 2);
  config.farm.node_failure_probability = 0.25;
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(3);
  std::size_t failures = 0;
  for (const GenerationRecord& gen : run.generations) {
    for (const EvalRecord& record : gen.evaluated) {
      if (record.status != ea::EvalStatus::kOk) {
        ++failures;
        EXPECT_DOUBLE_EQ(record.fitness[0], ea::kFailureFitness);
        EXPECT_DOUBLE_EQ(record.fitness[1], ea::kFailureFitness);
      }
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(failures, [&] {
    std::size_t total = 0;
    for (const auto& gen : run.generations) total += gen.failures;
    return total;
  }());
}

TEST(Driver, FinalPopulationNeverPrefersFailuresOverSolutions) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_config(16, 3);
  config.farm.node_failure_probability = 0.05;
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(4);
  // With plenty of successful candidates in the union, NSGA-II truncation
  // must not keep MAXINT individuals in the final parents.
  std::size_t failed_parents = 0;
  for (const EvalRecord& record : run.final_population) {
    if (record.fitness[0] >= ea::kFailureFitness) ++failed_parents;
  }
  EXPECT_EQ(failed_parents, 0u);
}

TEST(Driver, SelectionImprovesMedianForceLoss) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(30, 5), evaluator);
  const RunRecord run = engine.run(5);
  const auto median_force = [](const GenerationRecord& gen) {
    std::vector<double> forces;
    for (const EvalRecord& r : gen.evaluated) {
      if (r.status == ea::EvalStatus::kOk) forces.push_back(r.fitness[1]);
    }
    std::sort(forces.begin(), forces.end());
    return forces[forces.size() / 2];
  };
  const double first = median_force(run.generations.front());
  const double last = median_force(run.generations.back());
  EXPECT_LT(last, first);
}

TEST(Driver, MutationStdAnnealedPerGeneration) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(8, 3), evaluator);
  const RunRecord run = engine.run(6);
  // Recorded sigma vectors shrink by exactly 0.85 each generation after the
  // first reproduction.
  const auto& gens = run.generations;
  ASSERT_GE(gens.size(), 3u);
  for (std::size_t g = 2; g < gens.size(); ++g) {
    for (std::size_t i = 0; i < gens[g].mutation_std.size(); ++i) {
      EXPECT_NEAR(gens[g].mutation_std[i], gens[g - 1].mutation_std[i] * 0.85,
                  1e-12);
    }
  }
}

TEST(Driver, AnnealingCanBeDisabled) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_config(8, 3);
  config.anneal_enabled = false;
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(7);
  const auto& gens = run.generations;
  EXPECT_EQ(gens.front().mutation_std, gens.back().mutation_std);
}

TEST(Driver, DeterministicForSeed) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine a(small_config(10, 2), evaluator);
  EvolutionEngine b(small_config(10, 2), evaluator);
  const RunRecord ra = a.run(11);
  const RunRecord rb = b.run(11);
  ASSERT_EQ(ra.final_population.size(), rb.final_population.size());
  for (std::size_t i = 0; i < ra.final_population.size(); ++i) {
    EXPECT_EQ(ra.final_population[i].fitness, rb.final_population[i].fitness);
    EXPECT_EQ(ra.final_population[i].uuid, rb.final_population[i].uuid);
  }
}

TEST(Driver, SeedsProduceDifferentRuns) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(10, 2), evaluator);
  const RunRecord a = engine.run(1);
  const RunRecord b = engine.run(2);
  EXPECT_NE(a.final_population[0].fitness, b.final_population[0].fitness);
}

TEST(Driver, JobClockUnderTwelveHoursAtPaperScale) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config = small_config(100, 6);  // the paper's configuration
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(13);
  EXPECT_LT(run.job_minutes, 12 * 60.0);
  // 7 waves of <= ~80-minute trainings.
  EXPECT_GT(run.job_minutes, 7 * 30.0);
}

TEST(Driver, SortBackendsProduceSameRun) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig deb_config = small_config(12, 3);
  deb_config.sort_backend = moo::SortBackend::kFastNondominated;
  EngineConfig ens_config = small_config(12, 3);
  ens_config.sort_backend = moo::SortBackend::kRankOrdinal;
  const RunRecord deb = EvolutionEngine(deb_config, evaluator).run(17);
  const RunRecord ens = EvolutionEngine(ens_config, evaluator).run(17);
  ASSERT_EQ(deb.final_population.size(), ens.final_population.size());
  for (std::size_t i = 0; i < deb.final_population.size(); ++i) {
    EXPECT_EQ(deb.final_population[i].fitness, ens.final_population[i].fitness);
  }
}

TEST(Driver, RuntimesRecordedForAllEvaluations) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EvolutionEngine engine(small_config(10, 2), evaluator);
  const RunRecord run = engine.run(19);
  for (const GenerationRecord& gen : run.generations) {
    for (const EvalRecord& record : gen.evaluated) {
      EXPECT_GT(record.runtime_minutes, 0.0);
      EXPECT_LE(record.runtime_minutes, 120.0);
    }
  }
}

}  // namespace
}  // namespace dpho::core
