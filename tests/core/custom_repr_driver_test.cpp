// The engine with a custom (non-7-gene) genome layout -- the hook the NAS
// extension uses.  A counting mock evaluator stands in for training.
#include <gtest/gtest.h>

#include <atomic>

#include "core/engine.hpp"

namespace dpho::core {
namespace {

/// Scores a 3-gene genome on two toy objectives; thread-safe.
class MockEvaluator : public Evaluator {
 public:
  EvalOutcome evaluate(const ea::Individual& individual,
                       std::uint64_t /*seed*/) const override {
    calls_.fetch_add(1);
    const double x = individual.genome[0];
    const double y = individual.genome[1];
    const double z = individual.genome[2];
    return EvalOutcome::success({x * x + z, y * y + z}, 10.0);
  }

  int calls() const { return calls_.load(); }

 private:
  mutable std::atomic<int> calls_{0};
};

ea::Representation three_gene_layout() {
  ea::Representation repr;
  repr.add_gene({"x", {-1.0, 1.0}, 0.1, {-1.0, 1.0}});
  repr.add_gene({"y", {-1.0, 1.0}, 0.1, {-1.0, 1.0}});
  repr.add_gene({"z", {0.0, 1.0}, 0.05, {0.0, 1.0}});
  return repr;
}

TEST(CustomReprDriver, RunsWithThreeGeneGenome) {
  MockEvaluator evaluator;
  EngineConfig config;
  config.population_size = 10;
  config.generations = 3;
  config.representation = three_gene_layout();
  config.farm.real_threads = 2;
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(1);
  EXPECT_EQ(evaluator.calls(), 40);  // 10 x (1 initial + 3 offspring waves)
  for (const EvalRecord& record : run.final_population) {
    EXPECT_EQ(record.genome.size(), 3u);
    EXPECT_GE(record.genome[0], -1.0);
    EXPECT_LE(record.genome[0], 1.0);
  }
}

TEST(CustomReprDriver, SelectionMinimizesBothToyObjectives) {
  MockEvaluator evaluator;
  EngineConfig config;
  config.population_size = 24;
  config.generations = 8;
  config.representation = three_gene_layout();
  config.farm.real_threads = 2;
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(2);
  // Optimum is x=y=z=0 with fitness (0,0); survivors should be near it.
  double mean_f0 = 0.0;
  for (const EvalRecord& record : run.final_population) mean_f0 += record.fitness[0];
  mean_f0 /= static_cast<double>(run.final_population.size());
  EXPECT_LT(mean_f0, 0.15);
}

TEST(CustomReprDriver, DefaultLayoutStillSevenGenes) {
  MockEvaluator evaluator;  // never called with a valid genome size check here
  EngineConfig config;
  config.population_size = 4;
  config.generations = 0;
  config.farm.real_threads = 1;
  EvolutionEngine engine(config, evaluator);
  const RunRecord run = engine.run(3);
  for (const EvalRecord& record : run.final_population) {
    EXPECT_EQ(record.genome.size(), 7u);
  }
}

}  // namespace
}  // namespace dpho::core
