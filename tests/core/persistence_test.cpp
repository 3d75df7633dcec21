// Lossless experiment persistence: run records to JSON and back.
#include <gtest/gtest.h>

#include "codec_fuzz.hpp"
#include "core/analysis.hpp"
#include "core/experiment.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::core {
namespace {

std::vector<RunRecord> small_experiment() {
  ExperimentConfig config;
  config.engine.population_size = 10;
  config.engine.generations = 2;
  config.engine.farm.real_threads = 2;
  config.seeds = {1, 2};
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  return ExperimentRunner(config, evaluator).run_all();
}

TEST(Persistence, JsonRoundTripIsLossless) {
  const std::vector<RunRecord> runs = small_experiment();
  const std::vector<RunRecord> back = runs_from_json(runs_to_json(runs));
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(back[r].seed, runs[r].seed);
    EXPECT_DOUBLE_EQ(back[r].job_minutes, runs[r].job_minutes);
    ASSERT_EQ(back[r].generations.size(), runs[r].generations.size());
    for (std::size_t g = 0; g < runs[r].generations.size(); ++g) {
      const GenerationRecord& a = runs[r].generations[g];
      const GenerationRecord& b = back[r].generations[g];
      EXPECT_EQ(b.generation, a.generation);
      EXPECT_EQ(b.failures, a.failures);
      EXPECT_EQ(b.mutation_std, a.mutation_std);
      ASSERT_EQ(b.evaluated.size(), a.evaluated.size());
      for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
        EXPECT_EQ(b.evaluated[i].genome, a.evaluated[i].genome);
        EXPECT_EQ(b.evaluated[i].fitness, a.evaluated[i].fitness);
        EXPECT_EQ(b.evaluated[i].status, a.evaluated[i].status);
        EXPECT_EQ(b.evaluated[i].uuid, a.evaluated[i].uuid);
        EXPECT_DOUBLE_EQ(b.evaluated[i].runtime_minutes,
                         a.evaluated[i].runtime_minutes);
      }
    }
    ASSERT_EQ(back[r].final_population.size(), runs[r].final_population.size());
  }
}

TEST(Persistence, FileRoundTripSupportsReanalysis) {
  util::TempDir dir;
  const std::vector<RunRecord> runs = small_experiment();
  const auto path = dir.path() / "runs.json";
  save_runs(runs, path);
  const std::vector<RunRecord> loaded = load_runs(path);
  // The analysis layer produces identical results from the reloaded records.
  const auto front_a = pareto_front(last_generation_solutions(runs));
  const auto front_b = pareto_front(last_generation_solutions(loaded));
  EXPECT_EQ(front_a, front_b);
}

TEST(Persistence, PreservesFailureRecords) {
  ExperimentConfig config;
  config.engine.population_size = 20;
  config.engine.generations = 1;
  config.engine.farm.node_failure_probability = 0.2;
  config.engine.farm.max_attempts = 1;  // node death == failed evaluation
  config.engine.farm.real_threads = 2;
  config.seeds = {9};
  const auto evaluator_ptr = make_evaluator(EvalBackendConfig{});
  const Evaluator& evaluator = *evaluator_ptr;
  const auto runs = ExperimentRunner(config, evaluator).run_all();
  const auto back = runs_from_json(runs_to_json(runs));
  std::size_t failures_before = 0, failures_after = 0;
  for (const auto& gen : runs[0].generations) failures_before += gen.failures;
  for (const auto& gen : back[0].generations) failures_after += gen.failures;
  EXPECT_GT(failures_before, 0u);
  EXPECT_EQ(failures_after, failures_before);
}

TEST(Persistence, RejectsWrongFormat) {
  EXPECT_THROW(runs_from_json(util::Json::parse("{\"format\": \"other\"}")),
               util::ParseError);
  EXPECT_THROW(runs_from_json(util::Json::parse("{}")), util::ParseError);
}

TEST(Persistence, UnsignedFieldsRejectNegativeHugeAndFractionalValues) {
  // Counts and seeds go through Json::as_uint: -1 must not wrap to 2^64-1,
  // and 1e30 or 2.5 must not reach an undefined cast.
  test_support::fuzz_integer_fields(
      runs_to_json(small_experiment()),
      {{"runs", "0", "seed"},
       {"runs", "0", "generations", "0", "failures"},
       {"runs", "0", "generations", "0", "node_failures"},
       {"runs", "0", "generations", "1", "evaluated", "0", "attempts"},
       {"runs", "1", "final_population", "0", "attempts"}},
      runs_from_json);
}

}  // namespace
}  // namespace dpho::core
