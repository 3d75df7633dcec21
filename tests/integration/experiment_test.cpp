// End-to-end experiment at reduced scale: the full paper pipeline
// (5 runs x NSGA-II x surrogate x simulated cluster) plus the analysis layer,
// asserting the section-3 shape findings hold.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/analysis.hpp"
#include "util/csv.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dpho::core {
namespace {

class ExperimentSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config;
    config.engine.population_size = 40;
    config.engine.generations = 5;
    config.engine.farm.node_failure_probability = 0.0;  // config-driven failures only
    config.engine.farm.real_threads = 2;
    config.seeds = {1, 2, 3};
    evaluator_ = make_evaluator(EvalBackendConfig{}).release();
    ExperimentRunner runner(config, *evaluator_);
    runs_ = new std::vector<RunRecord>(runner.run_all());
  }
  static void TearDownTestSuite() {
    delete runs_;
    delete evaluator_;
    runs_ = nullptr;
    evaluator_ = nullptr;
  }

  static Evaluator* evaluator_;
  static std::vector<RunRecord>* runs_;
};

Evaluator* ExperimentSuite::evaluator_ = nullptr;
std::vector<RunRecord>* ExperimentSuite::runs_ = nullptr;

TEST_F(ExperimentSuite, AllRunsComplete) {
  ASSERT_EQ(runs_->size(), 3u);
  for (const RunRecord& run : *runs_) {
    EXPECT_EQ(run.generations.size(), 6u);
    EXPECT_EQ(run.final_population.size(), 40u);
    EXPECT_LT(run.job_minutes, 12 * 60.0);  // fits the Summit allocation
  }
}

TEST_F(ExperimentSuite, ConvergenceFig1Shape) {
  // Median force loss decreases from generation 0 to the last generation.
  const auto median_of = [&](int gen) {
    std::vector<double> forces;
    for (const EvalRecord& r : successful(generation_solutions(*runs_, gen))) {
      forces.push_back(r.fitness[1]);
    }
    std::sort(forces.begin(), forces.end());
    return forces[forces.size() / 2];
  };
  EXPECT_LT(median_of(5), median_of(0));
  // Later generations are also tighter (IQR shrinks).
  const auto iqr_of = [&](int gen) {
    std::vector<double> forces;
    for (const EvalRecord& r : successful(generation_solutions(*runs_, gen))) {
      forces.push_back(r.fitness[1]);
    }
    std::sort(forces.begin(), forces.end());
    return forces[3 * forces.size() / 4] - forces[forces.size() / 4];
  };
  EXPECT_LT(iqr_of(5), iqr_of(0));
}

TEST_F(ExperimentSuite, ParetoFrontInTable2Range) {
  const auto last = last_generation_solutions(*runs_);
  const auto front = pareto_front(last);
  ASSERT_GE(front.size(), 3u);
  for (std::size_t i : front) {
    // Same order of magnitude as Table 2 (F in [0.0357, 0.0409], E in
    // [0.0004, 0.0016]); we allow a factor ~2 band.
    EXPECT_GT(last[i].fitness[1], 0.02);
    EXPECT_LT(last[i].fitness[1], 0.08);
    EXPECT_GT(last[i].fitness[0], 0.0002);
    EXPECT_LT(last[i].fitness[0], 0.005);
  }
  // The frontier trades energy against force: sorted by force ascending,
  // energies are non-increasing.
  for (std::size_t k = 1; k < front.size(); ++k) {
    EXPECT_LE(last[front[k]].fitness[0], last[front[k - 1]].fitness[0] + 1e-12);
  }
}

TEST_F(ExperimentSuite, Fig3MarginalsMatchSection32) {
  const DeepMDRepresentation repr;
  const auto last = last_generation_solutions(*runs_);
  const AxisMarginals marginals = axis_marginals(last, repr);
  ASSERT_GT(marginals.num_accurate, 10u);
  // No chemically accurate solution below rcut ~8.5 A.
  EXPECT_GE(marginals.min_rcut_accurate, 8.5);
  // All runtimes below ~80 minutes.
  EXPECT_LT(marginals.max_runtime, 85.0);
  // relu/relu6 fitting activations extinct among accurate solutions.
  EXPECT_EQ(marginals.fitting_activation_counts_accurate[0], 0u);
  EXPECT_EQ(marginals.fitting_activation_counts_accurate[1], 0u);
  // sigmoid descriptor never chemically accurate.
  EXPECT_EQ(marginals.desc_activation_counts_accurate[3], 0u);
  // sqrt + none dominate linear scaling.
  EXPECT_GT(marginals.scaling_counts_accurate[1] + marginals.scaling_counts_accurate[2],
            2 * marginals.scaling_counts_accurate[0]);
}

TEST_F(ExperimentSuite, Table3SelectionExistsAndIsAccurate) {
  const auto last = last_generation_solutions(*runs_);
  const Table3Selection selection = select_table3(last);
  const ChemicalAccuracy limits;
  ASSERT_TRUE(selection.lowest_force.has_value());
  ASSERT_TRUE(selection.lowest_energy.has_value());
  ASSERT_TRUE(selection.lowest_runtime.has_value());
  EXPECT_TRUE(limits.accurate(*selection.lowest_force));
  EXPECT_TRUE(limits.accurate(*selection.lowest_energy));
  EXPECT_TRUE(limits.accurate(*selection.lowest_runtime));
  EXPECT_LE(selection.lowest_force->fitness[1], selection.lowest_energy->fitness[1]);
  EXPECT_LE(selection.lowest_energy->fitness[0], selection.lowest_force->fitness[0]);
}

TEST_F(ExperimentSuite, FailuresConcentrateInEarlyGenerations) {
  std::size_t early = 0, late = 0;
  for (const RunRecord& run : *runs_) {
    for (const GenerationRecord& gen : run.generations) {
      if (gen.generation <= 2) {
        early += gen.failures;
      } else {
        late += gen.failures;
      }
    }
  }
  EXPECT_GE(early, late);  // optimization moves away from fatal configs
}

TEST_F(ExperimentSuite, ExportWritesCsvAndSummary) {
  util::TempDir dir;
  export_results(*runs_, dir.path());
  const auto rows =
      util::CsvReader::parse(util::read_file(dir.path() / "evaluations.csv"));
  // header + 3 runs x 6 generations x 40 individuals.
  EXPECT_EQ(rows.size(), 1u + 3u * 6u * 40u);
  const util::Json summary =
      util::Json::parse(util::read_file(dir.path() / "summary.json"));
  EXPECT_EQ(summary.at("runs").as_array().size(), 3u);
  EXPECT_EQ(summary.at("runs").as_array()[0].at("evaluations").as_int(), 240);
}

TEST_F(ExperimentSuite, RecordsCsvHasGenomeAndStatusColumns) {
  const std::string csv = records_csv(*runs_);
  const auto rows = util::CsvReader::parse(csv);
  ASSERT_GT(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "run_seed");
  // The fault-tolerance columns trail the status for post-mortem analysis.
  ASSERT_GE(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][rows[0].size() - 3], "status");
  EXPECT_EQ(rows[0][rows[0].size() - 2], "attempts");
  EXPECT_EQ(rows[0].back(), "failure_cause");
  EXPECT_EQ(rows[1].size(), rows[0].size());
}

}  // namespace
}  // namespace dpho::core
