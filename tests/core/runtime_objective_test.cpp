// The three-objective mode: training runtime as an explicitly minimized
// objective alongside the energy and force errors ("optimization of time to
// solution", section 1).
#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "util/csv.hpp"

namespace dpho::core {
namespace {

RunRecord run_with_runtime_objective(std::uint64_t seed, std::size_t pop = 24,
                                     std::size_t gens = 4) {
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig config;
  config.population_size = pop;
  config.generations = gens;
  config.include_runtime_objective = true;
  config.farm.real_threads = 2;
  EvolutionEngine engine(config, evaluator);
  return engine.run(seed);
}

TEST(RuntimeObjective, FitnessHasThreeComponents) {
  const RunRecord run = run_with_runtime_objective(1);
  for (const EvalRecord& record : run.final_population) {
    ASSERT_EQ(record.fitness.size(), 3u);
    if (record.status == ea::EvalStatus::kOk) {
      EXPECT_DOUBLE_EQ(record.fitness[2], record.runtime_minutes);
    } else {
      EXPECT_DOUBLE_EQ(record.fitness[2], ea::kFailureFitness);
    }
  }
}

TEST(RuntimeObjective, AnalysisLayerStillWorks) {
  const RunRecord run = run_with_runtime_objective(2);
  const std::vector<RunRecord> runs = {run};
  const auto last = last_generation_solutions(runs);
  EXPECT_FALSE(successful(last).empty());
  const auto front = pareto_front(last);
  EXPECT_FALSE(front.empty());
  const DeepMDRepresentation repr;
  const AxisMarginals marginals = axis_marginals(last, repr);
  EXPECT_GT(marginals.num_total, 0u);
}

TEST(RuntimeObjective, RuntimePressureKeepsFasterSolutions) {
  // With runtime as an objective, the final population retains genuinely
  // faster (small-rcut) solutions that the 2-objective run discards.
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  EngineConfig two_obj;
  two_obj.population_size = 40;
  two_obj.generations = 5;
  two_obj.farm.real_threads = 2;
  const RunRecord without = EvolutionEngine(two_obj, evaluator).run(3);
  const RunRecord with = run_with_runtime_objective(3, 40, 5);

  const auto min_runtime = [](const RunRecord& run) {
    double best = 1e300;
    for (const EvalRecord& record : run.final_population) {
      if (record.status == ea::EvalStatus::kOk) {
        best = std::min(best, record.runtime_minutes);
      }
    }
    return best;
  };
  EXPECT_LT(min_runtime(with), min_runtime(without));
}

TEST(RuntimeObjective, ThreeObjectiveFrontIsMutuallyNonDominated) {
  const RunRecord run = run_with_runtime_objective(5, 30, 4);
  const std::vector<RunRecord> runs = {run};
  const auto last = last_generation_solutions(runs);
  const auto front = pareto_front(last);
  for (std::size_t a : front) {
    for (std::size_t b : front) {
      if (a == b) continue;
      EXPECT_FALSE(moo::dominates(last[a].fitness, last[b].fitness));
    }
  }
}

TEST(RuntimeObjective, RecordsCsvKeepsLossColumns) {
  const RunRecord run = run_with_runtime_objective(7, 12, 2);
  const std::string csv = records_csv({run});
  const auto rows = util::CsvReader::parse(csv);
  ASSERT_GT(rows.size(), 1u);
  // rmse_e / rmse_f columns are populated (indices 10 and 11).
  bool any_filled = false;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    if (!rows[r][10].empty() && !rows[r][11].empty()) any_filled = true;
  }
  EXPECT_TRUE(any_filled);
}

}  // namespace
}  // namespace dpho::core
