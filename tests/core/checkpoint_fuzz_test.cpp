// Checkpoint corruption fuzzing: whatever a crash, bad disk, or partial
// write leaves behind, CheckpointManager::load() must either resume from a
// complete checkpoint or return nullopt -- never crash, hang, or hand back a
// half-parsed state.  Covers schema-2 (current) and schema-1 (legacy
// generational) documents under truncation and bit flips.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dpho::core {
namespace {

DriverCheckpoint make_checkpoint(ScheduleMode mode) {
  util::Rng rng(42);
  DriverCheckpoint cp;
  cp.seed = 0xDEADBEEFCAFEBABEULL;
  cp.mode = mode;
  cp.completed_generations = 2;
  for (int i = 0; i < 4; ++i) {
    ea::Individual individual = ea::Individual::create(
        {0.004, 0.001, 3.0 + 0.1 * i, 2.0, 2.3, 4.6, 4.2}, rng, i);
    individual.fitness = {0.01 * (i + 1), 0.3};
    cp.parents.push_back(std::move(individual));
  }
  cp.rng = rng.save_state();
  cp.mutation_std = {0.0034, 0.00085, 0.1, 0.05, 0.2, 0.6, 0.6};
  cp.farm.clock_minutes = 123.456;
  cp.farm.live_workers = 3;
  cp.farm.tasks_run_on_node = {2, 1, 1, 0};
  cp.farm.rng = util::Rng(7).save_state();
  GenerationRecord gen;
  gen.generation = 0;
  gen.makespan_minutes = 71.25;
  cp.generations.push_back(std::move(gen));
  if (mode == ScheduleMode::kSteadyState) {
    cp.births = 6;
    cp.wave_started_minutes = 50.0;
    InFlightBirth birth;
    birth.id = 5;
    birth.individual = cp.parents[0];
    cp.in_flight.push_back(std::move(birth));
  }
  return cp;
}

/// Serialized checkpoint document, optionally downgraded to schema 1 (which
/// predates the mode tag and the steady-state stream state).
std::string serialized(ScheduleMode mode, int schema) {
  util::Json json = CheckpointManager::to_json(make_checkpoint(mode));
  if (schema == 1) {
    util::JsonObject downgraded;
    for (const auto& [key, value] : json.as_object()) {
      if (key == "mode" || key == "births" || key == "wave_started_minutes" ||
          key == "wave_node_failures_base" || key == "in_flight" ||
          key == "partial_wave") {
        continue;
      }
      downgraded[key] = value;
    }
    downgraded["schema"] = 1;
    return util::Json(std::move(downgraded)).dump();
  }
  return json.dump();
}

/// Writes `content` as the only checkpoint in a fresh directory, with a
/// manifest pointing at it, and reports what load() does with it.
std::optional<DriverCheckpoint> load_from(const std::filesystem::path& dir,
                                          const std::string& content) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  util::write_file(dir / "checkpoint-gen-2.json", content);
  util::Json manifest;
  manifest["schema"] = CheckpointManager::kSchemaVersion;
  manifest["latest"] = "checkpoint-gen-2.json";
  util::write_file(dir / "manifest.json", manifest.dump());
  return CheckpointManager(dir).load();
}

class CheckpointFuzz
    : public ::testing::TestWithParam<std::pair<ScheduleMode, int>> {};

/// save() always writes the current schema, so the round trip runs only on
/// the schema-2 shapes; the decoder cases above keep covering schema 1.
class CheckpointRoundTrip : public CheckpointFuzz {};

std::string schema_name(
    const ::testing::TestParamInfo<std::pair<ScheduleMode, int>>& param_info) {
  return to_string(param_info.param.first) + "_schema" +
         std::to_string(param_info.param.second);
}

INSTANTIATE_TEST_SUITE_P(
    Schemas, CheckpointFuzz,
    ::testing::Values(std::pair{ScheduleMode::kGenerational, 2},
                      std::pair{ScheduleMode::kSteadyState, 2},
                      std::pair{ScheduleMode::kGenerational, 1}),
    schema_name);

INSTANTIATE_TEST_SUITE_P(
    Schemas, CheckpointRoundTrip,
    ::testing::Values(std::pair{ScheduleMode::kGenerational, 2},
                      std::pair{ScheduleMode::kSteadyState, 2}),
    schema_name);

TEST_P(CheckpointFuzz, IntactDocumentLoads) {
  const auto [mode, schema] = GetParam();
  util::TempDir tmp;
  const auto loaded = load_from(tmp.path() / "ck", serialized(mode, schema));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(loaded->completed_generations, 2u);
  // Schema-1 documents predate the mode tag and load as generational.
  EXPECT_EQ(loaded->mode,
            schema == 1 ? ScheduleMode::kGenerational : mode);
  EXPECT_EQ(loaded->parents.size(), 4u);
}

TEST_P(CheckpointFuzz, TruncationNeverCrashesAndNeverHalfLoads) {
  const auto [mode, schema] = GetParam();
  const std::string full = serialized(mode, schema);
  util::TempDir tmp;
  // Every truncation length in a coarse sweep plus a fine sweep at the tail.
  for (std::size_t keep = 0; keep < full.size();
       keep += (keep + 64 < full.size() ? 37 : 1)) {
    const auto loaded =
        load_from(tmp.path() / "ck", full.substr(0, keep));
    if (loaded.has_value()) {
      // If a prefix happens to parse it must be a complete checkpoint.
      EXPECT_EQ(loaded->seed, 0xDEADBEEFCAFEBABEULL) << "keep=" << keep;
      EXPECT_EQ(loaded->parents.size(), 4u) << "keep=" << keep;
    }
  }
}

TEST_P(CheckpointFuzz, BitFlipsLoadFullyOrNotAtAll) {
  const auto [mode, schema] = GetParam();
  const std::string full = serialized(mode, schema);
  util::TempDir tmp;
  util::Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = full;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(full.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    const auto loaded = load_from(tmp.path() / "ck", mutated);
    if (loaded.has_value()) {
      // A flip in whitespace, a digit, or a string payload may still parse;
      // the structural invariants must hold regardless.
      EXPECT_EQ(loaded->parents.size(), 4u) << "trial " << trial;
      EXPECT_EQ(loaded->mutation_std.size(), 7u) << "trial " << trial;
    }
  }
}

TEST_P(CheckpointRoundTrip, SaveLoadRoundTripSurvivesReload) {
  const ScheduleMode mode = GetParam().first;
  util::TempDir tmp;
  const CheckpointManager manager(tmp.path() / "ck");
  const DriverCheckpoint cp = make_checkpoint(mode);
  manager.save(cp);
  const auto loaded = manager.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(CheckpointManager::to_json(*loaded).dump(),
            CheckpointManager::to_json(cp).dump());
}

TEST(CheckpointFuzz, UnsupportedSchemaIsRejectedNotResumed) {
  util::TempDir tmp;
  for (int schema : {0, 3, 999}) {
    util::Json json =
        CheckpointManager::to_json(make_checkpoint(ScheduleMode::kGenerational));
    json["schema"] = schema;
    EXPECT_FALSE(load_from(tmp.path() / "ck", json.dump()).has_value())
        << "schema " << schema;
  }
}

}  // namespace
}  // namespace dpho::core
