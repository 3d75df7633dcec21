// The dpho_hpo production CLI end to end.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

#ifndef DPHO_HPO_BIN
#define DPHO_HPO_BIN "dpho_hpo"
#endif

namespace dpho {
namespace {

int run_command(const std::string& command) {
  return WEXITSTATUS(std::system(command.c_str()));
}

TEST(DphoHpoCli, RunsAndExportsArtifacts) {
  util::TempDir dir;
  const std::string out = (dir.path() / "results").string();
  const int code = run_command(std::string(DPHO_HPO_BIN) +
                               " --pop 12 --generations 2 --runs 2 --out " + out +
                               " --quiet > /dev/null 2>&1");
  ASSERT_EQ(code, 0);
  for (const char* name : {"evaluations.csv", "parallel_coordinates.csv",
                           "sensitivity.csv", "summary.json"}) {
    EXPECT_TRUE(std::filesystem::exists(dir.path() / "results" / name)) << name;
  }
  const auto rows = util::CsvReader::parse(
      util::read_file(dir.path() / "results" / "evaluations.csv"));
  EXPECT_EQ(rows.size(), 1u + 2u * 3u * 12u);  // header + runs x waves x pop
  const util::Json summary =
      util::Json::parse(util::read_file(dir.path() / "results" / "summary.json"));
  EXPECT_EQ(summary.at("runs").as_array().size(), 2u);
}

TEST(DphoHpoCli, AsyncModeRuns) {
  util::TempDir dir;
  const std::string out = (dir.path() / "async").string();
  const int code = run_command(std::string(DPHO_HPO_BIN) +
                               " --async --pop 10 --generations 2 --runs 1 --out " +
                               out + " --quiet > /dev/null 2>&1");
  ASSERT_EQ(code, 0);
  const auto rows = util::CsvReader::parse(
      util::read_file(dir.path() / "async" / "evaluations.csv"));
  EXPECT_EQ(rows.size(), 1u + 30u);  // header + pop x (generations + 1)
}

TEST(DphoHpoCli, AsyncModeComposesWithFaultsTracesAndCheckpoints) {
  // The acceptance path of the unified engine: --mode async together with
  // scripted faults, trace export, and checkpoint/resume in one invocation.
  util::TempDir dir;
  const std::string out = (dir.path() / "results").string();
  const std::string traces = (dir.path() / "traces").string();
  const std::string checkpoints = (dir.path() / "ckpt").string();
  const std::string plan_file = (dir.path() / "faults.json").string();
  util::write_file(plan_file,
                   "{\"events\": [{\"kind\": \"kill_worker\", \"batch\": 0,"
                   " \"task\": 4, \"attempt\": 1},"
                   " {\"kind\": \"straggler\", \"batch\": 0, \"task\": 9,"
                   " \"factor\": 3.0}]}");
  const std::string base = std::string(DPHO_HPO_BIN) +
                           " --mode async --pop 10 --generations 2 --runs 1" +
                           " --fault-plan " + plan_file + " --trace-dir " + traces +
                           " --checkpoint-dir " + checkpoints + " --out " + out +
                           " --quiet > /dev/null 2>&1";
  ASSERT_EQ(run_command(base), 0);
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "traces" / "trace-stream.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "traces" / "gantt-stream.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "ckpt" / "seed-1"));
  const std::string first = util::read_file(dir.path() / "results" / "evaluations.csv");

  // Resuming an already-finished run replays to the identical artifact.
  const int resumed = run_command(std::string(DPHO_HPO_BIN) +
                                  " --mode async --pop 10 --generations 2 --runs 1" +
                                  " --fault-plan " + plan_file + " --checkpoint-dir " +
                                  checkpoints + " --resume --out " + out +
                                  " --quiet > /dev/null 2>&1");
  ASSERT_EQ(resumed, 0);
  EXPECT_EQ(util::read_file(dir.path() / "results" / "evaluations.csv"), first);
}

TEST(DphoHpoCli, BadFaultPlanExitsTwo) {
  util::TempDir dir;
  const std::string plan_file = (dir.path() / "faults.json").string();
  util::write_file(plan_file, "{\"events\": [{\"kind\": \"meteor_strike\"}]}");
  EXPECT_EQ(run_command(std::string(DPHO_HPO_BIN) + " --fault-plan " + plan_file +
                        " --pop 8 --generations 1 --runs 1 --quiet >/dev/null 2>&1"),
            2);
}

TEST(DphoHpoCli, RuntimeObjectiveModeRuns) {
  const int code = run_command(std::string(DPHO_HPO_BIN) +
                               " --runtime-objective --pop 8 --generations 1"
                               " --runs 1 --quiet > /dev/null 2>&1");
  EXPECT_EQ(code, 0);
}

TEST(DphoHpoCli, HelpPrintsUsage) {
  util::TempDir dir;
  const std::string out_file = (dir.path() / "help.txt").string();
  const int code =
      run_command(std::string(DPHO_HPO_BIN) + " --help > " + out_file + " 2>&1");
  EXPECT_EQ(code, 0);
  const std::string text = util::read_file(out_file);
  EXPECT_NE(text.find("usage: dpho_hpo"), std::string::npos);
  EXPECT_NE(text.find("--runtime-objective"), std::string::npos);
}

TEST(DphoHpoCli, OutOfRangeCountsExitTwoNamingTheFlag) {
  // Every integer flag is range-checked before anything runs: a -1 must not
  // wrap to 2^64-1 (unbounded generations or seeds, or a checkpoint cadence
  // that never fires), and a zero population must not abort.
  util::TempDir dir;
  const std::string err = (dir.path() / "stderr.txt").string();
  const std::string checkpoints = (dir.path() / "ck").string();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--pop", "--pop -1"},
      {"--pop", "--pop 0"},
      {"--generations", "--generations -1"},
      {"--runs", "--runs -1"},
      {"--runs", "--runs 0"},
      {"--checkpoint-every",
       "--mode async --checkpoint-dir " + checkpoints + " --checkpoint-every -1"},
      {"--checkpoint-every", "--checkpoint-every 0"}};
  for (const auto& [flag, args] : cases) {
    EXPECT_EQ(run_command(std::string(DPHO_HPO_BIN) + " " + args +
                          " --quiet >/dev/null 2>" + err),
              2)
        << args;
    EXPECT_NE(util::read_file(err).find(flag), std::string::npos) << args;
  }
  EXPECT_FALSE(std::filesystem::exists(checkpoints));
}

TEST(DphoHpoCli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run_command(std::string(DPHO_HPO_BIN) + " --bogus >/dev/null 2>&1"), 2);
}

}  // namespace
}  // namespace dpho
