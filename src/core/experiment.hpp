// Multi-run experiment orchestration and result export.
//
// The paper performs five independent EA deployments (3500 trainings total)
// and analyses the aggregate.  ExperimentRunner runs one EngineConfig over a
// seed list and exports per-individual records as CSV/JSON for plotting.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "util/json.hpp"

namespace dpho::core {

struct ExperimentConfig {
  /// The run configuration every seed shares, in either schedule mode.  When
  /// engine.checkpoint_dir is set, each seed checkpoints into
  /// `<checkpoint_dir>/seed-<seed>`, so with engine.resume a killed
  /// experiment picks up where it stopped.
  EngineConfig engine;
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
};

class ExperimentRunner {
 public:
  ExperimentRunner(ExperimentConfig config, const Evaluator& evaluator)
      : config_(std::move(config)), evaluator_(evaluator) {}

  /// Runs every seed; deterministic per seed.
  std::vector<RunRecord> run_all() const;

  const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentConfig config_;
  const Evaluator& evaluator_;
};

/// CSV with one row per evaluation across all runs/generations
/// (run, generation, uuid, genome..., rmse_e, rmse_f, runtime, status).
std::string records_csv(const std::vector<RunRecord>& runs);

/// Writes records_csv plus a JSON summary next to it.
void export_results(const std::vector<RunRecord>& runs,
                    const std::filesystem::path& directory);

/// Single-record (de)serialization, shared with the checkpoint layer.
util::Json eval_record_to_json(const EvalRecord& record);
EvalRecord eval_record_from_json(const util::Json& json);
util::Json generation_to_json(const GenerationRecord& generation);
GenerationRecord generation_from_json(const util::Json& json);

/// Lossless persistence: the full run records (every evaluation, per
/// generation, with genomes/fitness/runtimes/statuses) as JSON, so the
/// analysis layer can be re-run later without repeating the experiment.
util::Json runs_to_json(const std::vector<RunRecord>& runs);
std::vector<RunRecord> runs_from_json(const util::Json& json);
void save_runs(const std::vector<RunRecord>& runs, const std::filesystem::path& path);
std::vector<RunRecord> load_runs(const std::filesystem::path& path);

}  // namespace dpho::core
