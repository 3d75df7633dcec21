#include "core/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/experiment.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

namespace dpho::core {

namespace {

constexpr const char* kFormatTag = "dpho-checkpoint";
constexpr const char* kManifestName = "manifest.json";

// JSON numbers are doubles: a full 64-bit RNG word cannot survive the trip.
// Hex-encode every uint64 that must restore bit-exactly.
std::string u64_to_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::uint64_t hex_to_u64(const std::string& text) {
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 16);
  if (end == text.c_str() || *end != '\0') {
    throw util::ParseError("bad hex u64 in checkpoint: " + text);
  }
  return value;
}

util::Json rng_state_to_json(const util::RngState& state) {
  util::Json json;
  util::JsonArray words;
  for (std::uint64_t word : state.state) words.emplace_back(u64_to_hex(word));
  json["state"] = util::Json(std::move(words));
  json["seed"] = u64_to_hex(state.seed);
  json["cached_normal"] = state.cached_normal;
  json["has_cached_normal"] = state.has_cached_normal;
  return json;
}

util::RngState rng_state_from_json(const util::Json& json) {
  util::RngState state;
  const util::JsonArray& words = json.at("state").as_array();
  if (words.size() != state.state.size()) {
    throw util::ParseError("rng state word count mismatch");
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    state.state[i] = hex_to_u64(words[i].as_string());
  }
  state.seed = hex_to_u64(json.at("seed").as_string());
  state.cached_normal = json.at("cached_normal").as_number();
  state.has_cached_normal = json.at("has_cached_normal").as_bool();
  return state;
}

ea::EvalStatus eval_status_from_string(const std::string& name) {
  if (name == "ok") return ea::EvalStatus::kOk;
  if (name == "timeout") return ea::EvalStatus::kTimeout;
  if (name == "training_error") return ea::EvalStatus::kTrainingError;
  if (name == "node_failure") return ea::EvalStatus::kNodeFailure;
  throw util::ParseError("unknown eval status in checkpoint: " + name);
}

util::Json individual_to_json(const ea::Individual& individual) {
  util::Json json;
  util::JsonArray genome;
  for (double gene : individual.genome) genome.emplace_back(gene);
  json["genome"] = util::Json(std::move(genome));
  util::JsonArray fitness;
  for (double f : individual.fitness) fitness.emplace_back(f);
  json["fitness"] = util::Json(std::move(fitness));
  json["uuid"] = individual.uuid.str();
  json["rank"] = individual.rank;
  // Boundary individuals carry an *infinite* crowding distance, which JSON
  // numbers cannot express (the writer would emit null); encode it as a
  // string marker instead.
  if (std::isfinite(individual.crowding_distance)) {
    json["crowding_distance"] = individual.crowding_distance;
  } else {
    json["crowding_distance"] = individual.crowding_distance > 0 ? "inf" : "-inf";
  }
  json["status"] = ea::to_string(individual.status);
  json["eval_runtime_minutes"] = individual.eval_runtime_minutes;
  json["eval_attempts"] = individual.eval_attempts;
  json["failure_cause"] = individual.failure_cause;
  json["birth_generation"] = individual.birth_generation;
  return json;
}

ea::Individual individual_from_json(const util::Json& json) {
  ea::Individual individual;
  for (const util::Json& gene : json.at("genome").as_array()) {
    individual.genome.push_back(gene.as_number());
  }
  for (const util::Json& f : json.at("fitness").as_array()) {
    individual.fitness.push_back(f.as_number());
  }
  individual.uuid = util::Uuid::parse(json.at("uuid").as_string());
  individual.rank = static_cast<int>(json.at("rank").as_int());
  const util::Json& crowding = json.at("crowding_distance");
  if (crowding.is_string()) {
    const double inf = std::numeric_limits<double>::infinity();
    if (crowding.as_string() == "inf") {
      individual.crowding_distance = inf;
    } else if (crowding.as_string() == "-inf") {
      individual.crowding_distance = -inf;
    } else {
      throw util::ParseError("bad crowding_distance marker in checkpoint");
    }
  } else {
    individual.crowding_distance = crowding.as_number();
  }
  individual.status = eval_status_from_string(json.at("status").as_string());
  individual.eval_runtime_minutes = json.at("eval_runtime_minutes").as_number();
  individual.eval_attempts = json.uint_at("eval_attempts");
  individual.failure_cause = json.at("failure_cause").as_string();
  individual.birth_generation =
      static_cast<int>(json.at("birth_generation").as_int());
  return individual;
}

util::Json task_report_to_json(const hpc::TaskReport& report) {
  util::Json json;
  json["status"] = hpc::to_string(report.status);
  util::JsonArray fitness;
  for (double f : report.fitness) fitness.emplace_back(f);
  json["fitness"] = util::Json(std::move(fitness));
  json["sim_minutes"] = report.sim_minutes;
  json["finish_minute"] = report.finish_minute;
  json["attempts"] = report.attempts;
  json["payload_attempts"] = report.payload_attempts;
  json["node"] = report.node;
  json["cause"] = hpc::to_string(report.cause);
  return json;
}

hpc::TaskReport task_report_from_json(const util::Json& json) {
  hpc::TaskReport report;
  report.status = hpc::task_status_from_string(json.at("status").as_string());
  for (const util::Json& f : json.at("fitness").as_array()) {
    report.fitness.push_back(f.as_number());
  }
  report.sim_minutes = json.at("sim_minutes").as_number();
  report.finish_minute = json.at("finish_minute").as_number();
  report.attempts = json.uint_at("attempts");
  report.payload_attempts = json.uint_at("payload_attempts");
  report.node = json.uint_at("node");
  report.cause = hpc::failure_cause_from_string(json.at("cause").as_string());
  return report;
}

util::Json farm_snapshot_to_json(const hpc::FarmSnapshot& farm) {
  util::Json json;
  json["clock_minutes"] = farm.clock_minutes;
  json["live_workers"] = farm.live_workers;
  util::JsonArray nodes;
  for (std::size_t count : farm.tasks_run_on_node) {
    // SIZE_MAX marks a dead node; store as -1 (counts are tiny otherwise).
    nodes.emplace_back(count == static_cast<std::size_t>(-1)
                           ? -1.0
                           : static_cast<double>(count));
  }
  json["tasks_run_on_node"] = util::Json(std::move(nodes));
  json["rng"] = rng_state_to_json(farm.rng);
  json["batches_run"] = farm.batches_run;
  // Stream-session state (schema 2); only written while a steady-state
  // session is open, so generational checkpoints stay unchanged on disk.
  if (farm.stream_active) {
    json["stream_active"] = true;
    json["stream_now"] = farm.stream_now;
    json["stream_batch"] = farm.stream_batch;
    json["stream_node_failures"] = farm.stream_node_failures;
    json["stream_scheduler_restarts"] = farm.stream_scheduler_restarts;
    util::JsonArray free_at;
    for (double minute : farm.stream_free_at) free_at.emplace_back(minute);
    json["stream_free_at"] = util::Json(std::move(free_at));
    util::JsonArray in_flight;
    for (const hpc::InFlightTask& task : farm.stream_in_flight) {
      util::Json entry;
      entry["id"] = task.id;
      entry["finish_at"] = task.finish_at;
      entry["report"] = task_report_to_json(task.report);
      in_flight.push_back(std::move(entry));
    }
    json["stream_in_flight"] = util::Json(std::move(in_flight));
    util::JsonArray delivered;
    for (const hpc::StreamCompletion& done : farm.stream_delivered) {
      util::Json entry;
      entry["id"] = done.id;
      entry["report"] = task_report_to_json(done.report);
      delivered.push_back(std::move(entry));
    }
    json["stream_delivered"] = util::Json(std::move(delivered));
  }
  return json;
}

hpc::FarmSnapshot farm_snapshot_from_json(const util::Json& json) {
  hpc::FarmSnapshot farm;
  farm.clock_minutes = json.at("clock_minutes").as_number();
  farm.live_workers = json.uint_at("live_workers");
  for (const util::Json& node : json.at("tasks_run_on_node").as_array()) {
    const std::int64_t count = node.as_int();
    farm.tasks_run_on_node.push_back(count < 0 ? static_cast<std::size_t>(-1)
                                               : static_cast<std::size_t>(count));
  }
  farm.rng = rng_state_from_json(json.at("rng"));
  farm.batches_run = json.uint_at("batches_run");
  if (json.contains("stream_active") && json.at("stream_active").as_bool()) {
    farm.stream_active = true;
    farm.stream_now = json.at("stream_now").as_number();
    farm.stream_batch = json.uint_at("stream_batch");
    farm.stream_node_failures = json.uint_at("stream_node_failures");
    farm.stream_scheduler_restarts = json.uint_at("stream_scheduler_restarts");
    for (const util::Json& minute : json.at("stream_free_at").as_array()) {
      farm.stream_free_at.push_back(minute.as_number());
    }
    for (const util::Json& entry : json.at("stream_in_flight").as_array()) {
      hpc::InFlightTask task;
      task.id = entry.uint_at("id");
      task.finish_at = entry.at("finish_at").as_number();
      task.report = task_report_from_json(entry.at("report"));
      farm.stream_in_flight.push_back(std::move(task));
    }
    for (const util::Json& entry : json.at("stream_delivered").as_array()) {
      hpc::StreamCompletion done;
      done.id = entry.uint_at("id");
      done.report = task_report_from_json(entry.at("report"));
      farm.stream_delivered.push_back(std::move(done));
    }
  }
  return farm;
}

}  // namespace

CheckpointManager::CheckpointManager(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::filesystem::path CheckpointManager::checkpoint_path(
    std::size_t generation) const {
  return dir_ / ("checkpoint-gen-" + std::to_string(generation) + ".json");
}

util::Json CheckpointManager::to_json(const DriverCheckpoint& checkpoint) {
  util::Json json;
  json["format"] = kFormatTag;
  json["schema"] = kSchemaVersion;
  json["seed"] = u64_to_hex(checkpoint.seed);
  json["completed_generations"] = checkpoint.completed_generations;
  util::JsonArray parents;
  for (const ea::Individual& individual : checkpoint.parents) {
    parents.push_back(individual_to_json(individual));
  }
  json["parents"] = util::Json(std::move(parents));
  json["rng"] = rng_state_to_json(checkpoint.rng);
  util::JsonArray sigma;
  for (double s : checkpoint.mutation_std) sigma.emplace_back(s);
  json["mutation_std"] = util::Json(std::move(sigma));
  json["farm"] = farm_snapshot_to_json(checkpoint.farm);
  util::JsonArray generations;
  for (const GenerationRecord& gen : checkpoint.generations) {
    generations.push_back(generation_to_json(gen));
  }
  json["generations"] = util::Json(std::move(generations));
  json["mode"] = to_string(checkpoint.mode);
  if (checkpoint.mode == ScheduleMode::kSteadyState) {
    json["births"] = checkpoint.births;
    json["wave_started_minutes"] = checkpoint.wave_started_minutes;
    json["wave_node_failures_base"] = checkpoint.wave_node_failures_base;
    if (checkpoint.partial_wave) {
      json["partial_wave"] = generation_to_json(*checkpoint.partial_wave);
    }
    util::JsonArray in_flight;
    for (const InFlightBirth& birth : checkpoint.in_flight) {
      util::Json entry;
      entry["id"] = birth.id;
      entry["individual"] = individual_to_json(birth.individual);
      in_flight.push_back(std::move(entry));
    }
    json["in_flight"] = util::Json(std::move(in_flight));
  }
  return json;
}

DriverCheckpoint CheckpointManager::from_json(const util::Json& json) {
  if (json.string_or("format", "") != kFormatTag) {
    throw util::ParseError("not a dpho checkpoint document");
  }
  // Version 1 lacked the mode tag and stream state but is otherwise a valid
  // generational checkpoint; refuse anything newer than we understand.
  const std::uint64_t schema = json.uint_or("schema", 0);
  if (schema < 1 || schema > static_cast<std::uint64_t>(kSchemaVersion)) {
    throw util::ParseError("unsupported checkpoint schema version");
  }
  DriverCheckpoint checkpoint;
  checkpoint.mode = schedule_mode_from_string(
      json.string_or("mode", to_string(ScheduleMode::kGenerational)));
  checkpoint.seed = hex_to_u64(json.at("seed").as_string());
  checkpoint.completed_generations = json.uint_at("completed_generations");
  for (const util::Json& individual : json.at("parents").as_array()) {
    checkpoint.parents.push_back(individual_from_json(individual));
  }
  checkpoint.rng = rng_state_from_json(json.at("rng"));
  for (const util::Json& s : json.at("mutation_std").as_array()) {
    checkpoint.mutation_std.push_back(s.as_number());
  }
  checkpoint.farm = farm_snapshot_from_json(json.at("farm"));
  for (const util::Json& gen : json.at("generations").as_array()) {
    checkpoint.generations.push_back(generation_from_json(gen));
  }
  if (checkpoint.mode == ScheduleMode::kSteadyState) {
    checkpoint.births = json.uint_at("births");
    checkpoint.wave_started_minutes = json.at("wave_started_minutes").as_number();
    checkpoint.wave_node_failures_base = json.uint_at("wave_node_failures_base");
    if (json.contains("partial_wave")) {
      checkpoint.partial_wave = generation_from_json(json.at("partial_wave"));
    }
    for (const util::Json& entry : json.at("in_flight").as_array()) {
      InFlightBirth birth;
      birth.id = entry.uint_at("id");
      birth.individual = individual_from_json(entry.at("individual"));
      checkpoint.in_flight.push_back(std::move(birth));
    }
  }
  return checkpoint;
}

void CheckpointManager::save(const DriverCheckpoint& checkpoint) const {
  const std::filesystem::path path =
      checkpoint_path(checkpoint.completed_generations);
  util::atomic_write_file(path, to_json(checkpoint).dump());

  util::Json manifest;
  manifest["format"] = std::string(kFormatTag) + "-manifest";
  manifest["schema"] = kSchemaVersion;
  manifest["latest"] = path.filename().string();
  manifest["seed"] = u64_to_hex(checkpoint.seed);
  manifest["completed_generations"] = checkpoint.completed_generations;
  util::atomic_write_file(dir_ / kManifestName, manifest.dump(2));
  obs::metrics().counter("checkpoint.saves_total").add(1);
  obs::events().emit(
      "checkpoint.save",
      {{"generation",
        static_cast<std::int64_t>(checkpoint.completed_generations)},
       {"path", path.filename().string()}});

  // Prune superseded checkpoints (the manifest now names the newest one).
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("checkpoint-gen-") && name.ends_with(".json") &&
        entry.path() != path) {
      std::error_code ec;
      std::filesystem::remove(entry.path(), ec);  // best effort
    }
  }
}

std::optional<DriverCheckpoint> CheckpointManager::load() const {
  if (!std::filesystem::exists(dir_)) return std::nullopt;

  // Candidate files: the manifest's `latest` plus every checkpoint-gen-*.json
  // in the directory (covers a crash between checkpoint- and manifest-write).
  std::vector<std::filesystem::path> candidates;
  const std::filesystem::path manifest_path = dir_ / kManifestName;
  if (std::filesystem::exists(manifest_path)) {
    try {
      const util::Json manifest = util::Json::parse(util::read_file(manifest_path));
      if (manifest.contains("latest")) {
        candidates.push_back(dir_ / manifest.at("latest").as_string());
      }
    } catch (const std::exception& e) {
      util::log_info() << "checkpoint: ignoring corrupt manifest: " << e.what();
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("checkpoint-gen-") && name.ends_with(".json")) {
      candidates.push_back(entry.path());
    }
  }

  std::optional<DriverCheckpoint> best;
  for (const std::filesystem::path& path : candidates) {
    try {
      DriverCheckpoint checkpoint = from_json(util::Json::parse(util::read_file(path)));
      if (!best || checkpoint.completed_generations > best->completed_generations) {
        best = std::move(checkpoint);
      }
    } catch (const std::exception& e) {
      obs::metrics().counter("checkpoint.load_rejects_total").add(1);
      util::log_info() << "checkpoint: skipping unusable " << path.string() << ": "
                       << e.what();
    }
  }
  if (best) {
    obs::metrics().counter("checkpoint.loads_total").add(1);
    obs::events().emit(
        "checkpoint.load",
        {{"generation",
          static_cast<std::int64_t>(best->completed_generations)}});
  }
  return best;
}

}  // namespace dpho::core
