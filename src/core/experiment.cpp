#include "core/experiment.hpp"

#include <map>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dpho::core {

std::vector<RunRecord> ExperimentRunner::run_all() const {
  std::vector<RunRecord> runs;
  runs.reserve(config_.seeds.size());
  for (std::uint64_t seed : config_.seeds) {
    EngineConfig engine = config_.engine;
    if (engine.checkpoint_dir) {
      engine.checkpoint_dir =
          *engine.checkpoint_dir / ("seed-" + std::to_string(seed));
    }
    runs.push_back(EvolutionEngine(std::move(engine), evaluator_).run(seed));
  }
  return runs;
}

std::string records_csv(const std::vector<RunRecord>& runs) {
  std::ostringstream out;
  util::CsvWriter writer(out);
  writer.write_row({"run_seed", "generation", "uuid", "start_lr", "stop_lr", "rcut",
                    "rcut_smth", "scale_by_worker", "desc_activ_func",
                    "fitting_activ_func", "rmse_e", "rmse_f", "runtime_minutes",
                    "status", "attempts", "failure_cause"});
  const auto fmt = util::CsvWriter::format;
  for (const RunRecord& run : runs) {
    for (const GenerationRecord& generation : run.generations) {
      for (const EvalRecord& record : generation.evaluated) {
        std::vector<std::string> row = {std::to_string(run.seed),
                                        std::to_string(record.generation), record.uuid};
        for (double gene : record.genome) row.push_back(fmt(gene));
        row.push_back(record.fitness.size() >= 2 ? fmt(record.fitness[0]) : "");
        row.push_back(record.fitness.size() >= 2 ? fmt(record.fitness[1]) : "");
        row.push_back(fmt(record.runtime_minutes));
        row.push_back(to_string(record.status));
        row.push_back(std::to_string(record.attempts));
        row.push_back(record.failure_cause);
        writer.write_row(row);
      }
    }
  }
  return out.str();
}

void export_results(const std::vector<RunRecord>& runs,
                    const std::filesystem::path& directory) {
  std::filesystem::create_directories(directory);
  util::write_file(directory / "evaluations.csv", records_csv(runs));

  util::Json summary;
  util::JsonArray run_array;
  for (const RunRecord& run : runs) {
    util::Json entry;
    entry["seed"] = run.seed;
    entry["mode"] = to_string(run.mode);
    entry["job_minutes"] = run.job_minutes;
    entry["busy_fraction"] = run.busy_fraction;
    std::size_t failures = 0;
    std::size_t evaluations = 0;
    std::size_t retried = 0;
    std::size_t attempts_total = 0;
    std::map<std::string, std::size_t> causes;
    for (const GenerationRecord& generation : run.generations) {
      failures += generation.failures;
      evaluations += generation.evaluated.size();
      for (const EvalRecord& record : generation.evaluated) {
        attempts_total += record.attempts;
        if (record.attempts > 1) ++retried;
        if (record.failure_cause != "none") ++causes[record.failure_cause];
      }
    }
    entry["evaluations"] = evaluations;
    entry["failures"] = failures;
    entry["generations"] = run.generations.size();
    entry["attempts_total"] = attempts_total;
    entry["evaluations_retried"] = retried;
    util::Json cause_counts;
    for (const auto& [cause, count] : causes) cause_counts[cause] = count;
    if (causes.empty()) cause_counts = util::Json(util::JsonObject{});
    entry["failure_causes"] = std::move(cause_counts);
    run_array.push_back(std::move(entry));
  }
  summary["runs"] = util::Json(std::move(run_array));
  util::write_file(directory / "summary.json", summary.dump(2));
}

namespace {

ea::EvalStatus status_from_string(const std::string& name) {
  if (name == "ok") return ea::EvalStatus::kOk;
  if (name == "timeout") return ea::EvalStatus::kTimeout;
  if (name == "training_error") return ea::EvalStatus::kTrainingError;
  if (name == "node_failure") return ea::EvalStatus::kNodeFailure;
  throw util::ParseError("unknown eval status: " + name);
}

}  // namespace

util::Json eval_record_to_json(const EvalRecord& record) {
  util::Json json;
  util::JsonArray genome;
  for (double gene : record.genome) genome.emplace_back(gene);
  json["genome"] = util::Json(std::move(genome));
  util::JsonArray fitness;
  for (double f : record.fitness) fitness.emplace_back(f);
  json["fitness"] = util::Json(std::move(fitness));
  json["runtime_minutes"] = record.runtime_minutes;
  json["status"] = to_string(record.status);
  json["attempts"] = record.attempts;
  json["failure_cause"] = record.failure_cause;
  json["generation"] = record.generation;
  json["uuid"] = record.uuid;
  return json;
}

EvalRecord eval_record_from_json(const util::Json& json) {
  EvalRecord record;
  for (const util::Json& gene : json.at("genome").as_array()) {
    record.genome.push_back(gene.as_number());
  }
  for (const util::Json& f : json.at("fitness").as_array()) {
    record.fitness.push_back(f.as_number());
  }
  record.runtime_minutes = json.at("runtime_minutes").as_number();
  record.status = status_from_string(json.at("status").as_string());
  // Optional since dpho-runs-v1 documents written before the fault-tolerance
  // layer lack them.
  record.attempts = json.uint_or("attempts", 1);
  record.failure_cause = json.string_or("failure_cause", "none");
  record.generation = static_cast<int>(json.at("generation").as_int());
  record.uuid = json.at("uuid").as_string();
  return record;
}

util::Json generation_to_json(const GenerationRecord& gen) {
  util::Json gen_json;
  gen_json["generation"] = gen.generation;
  gen_json["makespan_minutes"] = gen.makespan_minutes;
  gen_json["failures"] = gen.failures;
  gen_json["node_failures"] = gen.node_failures;
  util::JsonArray sigma;
  for (double s : gen.mutation_std) sigma.emplace_back(s);
  gen_json["mutation_std"] = util::Json(std::move(sigma));
  util::JsonArray evaluated;
  for (const EvalRecord& record : gen.evaluated) {
    evaluated.push_back(eval_record_to_json(record));
  }
  gen_json["evaluated"] = util::Json(std::move(evaluated));
  return gen_json;
}

GenerationRecord generation_from_json(const util::Json& gen_json) {
  GenerationRecord gen;
  gen.generation = static_cast<int>(gen_json.at("generation").as_int());
  gen.makespan_minutes = gen_json.at("makespan_minutes").as_number();
  gen.failures = gen_json.uint_at("failures");
  gen.node_failures = gen_json.uint_at("node_failures");
  for (const util::Json& s : gen_json.at("mutation_std").as_array()) {
    gen.mutation_std.push_back(s.as_number());
  }
  for (const util::Json& record : gen_json.at("evaluated").as_array()) {
    gen.evaluated.push_back(eval_record_from_json(record));
  }
  return gen;
}

util::Json runs_to_json(const std::vector<RunRecord>& runs) {
  util::Json document;
  document["format"] = "dpho-runs-v1";
  util::JsonArray run_array;
  for (const RunRecord& run : runs) {
    util::Json run_json;
    run_json["seed"] = run.seed;
    run_json["mode"] = to_string(run.mode);
    run_json["job_minutes"] = run.job_minutes;
    run_json["busy_fraction"] = run.busy_fraction;
    util::JsonArray generations;
    for (const GenerationRecord& gen : run.generations) {
      generations.push_back(generation_to_json(gen));
    }
    run_json["generations"] = util::Json(std::move(generations));
    util::JsonArray final_population;
    for (const EvalRecord& record : run.final_population) {
      final_population.push_back(eval_record_to_json(record));
    }
    run_json["final_population"] = util::Json(std::move(final_population));
    run_array.push_back(std::move(run_json));
  }
  document["runs"] = util::Json(std::move(run_array));
  return document;
}

std::vector<RunRecord> runs_from_json(const util::Json& json) {
  if (json.string_or("format", "") != "dpho-runs-v1") {
    throw util::ParseError("not a dpho-runs-v1 document");
  }
  std::vector<RunRecord> runs;
  for (const util::Json& run_json : json.at("runs").as_array()) {
    RunRecord run;
    run.seed = run_json.uint_at("seed");
    // Optional: documents written before the unified engine lack them.
    run.mode = schedule_mode_from_string(
        run_json.string_or("mode", to_string(ScheduleMode::kGenerational)));
    run.busy_fraction = run_json.number_or("busy_fraction", 0.0);
    run.job_minutes = run_json.at("job_minutes").as_number();
    for (const util::Json& gen_json : run_json.at("generations").as_array()) {
      run.generations.push_back(generation_from_json(gen_json));
    }
    for (const util::Json& record : run_json.at("final_population").as_array()) {
      run.final_population.push_back(eval_record_from_json(record));
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

void save_runs(const std::vector<RunRecord>& runs, const std::filesystem::path& path) {
  util::write_file(path, runs_to_json(runs).dump());
}

std::vector<RunRecord> load_runs(const std::filesystem::path& path) {
  return runs_from_json(util::Json::parse(util::read_file(path)));
}

}  // namespace dpho::core
