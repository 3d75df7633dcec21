// End-to-end chaos for the dpho_sched daemon as a real subprocess driving a
// real 3-worker process pool: two tenants sharing the pool must finish with
// archives byte-identical to solo single-run engine runs of the same seeds
// -- in the clean case, with workers SIGKILLed mid-run by a fault plan, and
// across a SIGKILL of the scheduler itself followed by --resume.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/eval_config_io.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "obs/report.hpp"
#include "sched/protocol.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dpho::sched {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Spawns the dpho_sched binary on a process pool of 3 dpho_worker
/// subprocesses and resolves its port through --port-file.
class Daemon {
 public:
  Daemon(const fs::path& state_dir, const fs::path& workdir,
         std::vector<std::string> extra_args) {
    port_file_ = workdir / "port";
    fs::remove(port_file_);
    std::vector<std::string> argv_store = {
        DPHO_SCHED_BIN,      "--state-dir", state_dir.string(),
        "--port-file",       port_file_.string(),
        "--cluster",         "process",
        "--workers",         "3",
        "--worker-binary",   DPHO_WORKER_BIN};
    for (std::string& arg : extra_args) argv_store.push_back(std::move(arg));
    std::vector<char*> argv;
    for (std::string& arg : argv_store) argv.push_back(arg.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ == 0) {
      ::execv(argv[0], argv.data());
      std::_Exit(127);  // exec failed
    }
    if (pid_ < 0) {
      ADD_FAILURE() << "fork failed";
      return;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!fs::exists(port_file_) && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!fs::exists(port_file_)) {
      ADD_FAILURE() << "scheduler daemon never published its port";
      return;
    }
    port_ = std::stoi(util::read_file(port_file_));
  }

  ~Daemon() {
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  int port() const { return port_; }

  void signal(int signo) const { ASSERT_EQ(::kill(pid_, signo), 0); }

  /// Reaps the daemon (blocking) and returns the raw waitpid status.
  int wait() {
    int status = 0;
    EXPECT_EQ(::waitpid(pid_, &status, 0), pid_);
    reaped_ = true;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  fs::path port_file_;
  bool reaped_ = false;
};

int run_client(int port, const std::string& args) {
  const std::string command = std::string(DPHO_SCHED_CLIENT_BIN) + " --port " +
                              std::to_string(port) + " --quiet " + args;
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

RunSpec tenant_spec(const std::string& name, std::uint64_t seed,
                    std::size_t budget, std::size_t weight = 1) {
  RunSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.population_size = 6;
  spec.num_workers = 3;
  spec.total_evaluations = budget;
  spec.weight = weight;
  return spec;
}

fs::path write_spec(const fs::path& dir, const RunSpec& spec) {
  const fs::path path = dir / (spec.name + ".spec.json");
  util::write_file(path, run_spec_to_json(spec).dump() + "\n");
  return path;
}

/// Counts `kind` events in a JSONL timeline by substring (the sink flushes
/// per line, so mid-run polling sees a prefix of whole lines).
std::size_t count_events(const fs::path& timeline, const std::string& kind) {
  if (!fs::exists(timeline)) return 0;
  const std::string needle = "\"kind\":\"" + kind + "\"";
  const std::string text = util::read_file(timeline);
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

bool wait_for_events(const fs::path& timeline, const std::string& kind,
                     std::size_t minimum,
                     std::chrono::seconds budget = std::chrono::seconds(60)) {
  const auto deadline = Clock::now() + budget;
  while (Clock::now() < deadline) {
    if (count_events(timeline, kind) >= minimum) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// The solo equivalent: the same spec run alone through the single-run
/// steady-state engine on its own (private) 3-worker process pool.  Cached
/// per (seed, budget) -- several tests pin against the same baseline.
const std::vector<core::EvalRecord>& solo_evaluations(std::uint64_t seed,
                                                      std::size_t budget) {
  static std::map<std::pair<std::uint64_t, std::size_t>,
                  std::vector<core::EvalRecord>>
      cache;
  const auto key = std::make_pair(seed, budget);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  core::EngineConfig config;
  config.mode = core::ScheduleMode::kSteadyState;
  config.num_workers = 3;
  config.population_size = 6;
  config.total_evaluations = budget;
  config.cluster_backend.kind = hpc::ClusterBackendKind::kProcess;
  config.cluster_backend.process.worker_binary = DPHO_WORKER_BIN;
  config.cluster_backend.process.num_workers = 3;
  config.cluster_backend.process.eval_config_json =
      core::eval_backend_config_to_json(core::EvalBackendConfig{}).dump();
  return cache
      .emplace(key, core::EvolutionEngine(config, *evaluator).run(seed).all_evaluations())
      .first->second;
}

/// The determinism contract across the daemon boundary: who was evaluated,
/// with what fitness, in which generation -- equal; attempts and wall-clock
/// may differ (faults and fair-share interleaving are invisible here).
void expect_matches_solo(const fs::path& record_json, std::uint64_t seed,
                         std::size_t budget) {
  const std::vector<core::RunRecord> runs =
      core::runs_from_json(util::Json::parse(util::read_file(record_json)));
  ASSERT_EQ(runs.size(), 1u);
  const std::vector<core::EvalRecord> lhs = runs.front().all_evaluations();
  const std::vector<core::EvalRecord>& rhs = solo_evaluations(seed, budget);
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].uuid, rhs[i].uuid) << i;
    EXPECT_EQ(lhs[i].fitness, rhs[i].fitness) << i;
    EXPECT_EQ(lhs[i].status, rhs[i].status) << i;
    EXPECT_EQ(lhs[i].generation, rhs[i].generation) << i;
  }
}

TEST(SchedE2e, OutOfRangeIntegerFlagsExitTwoNamingTheFlag) {
  // The daemon's --max-runs and the client's port (from --port or
  // --port-file) are range-checked before anything binds or connects;
  // `timeout` keeps a wrapped -1 from hanging.
  util::TempDir dir;
  const std::string err = (dir.path() / "stderr.txt").string();
  const std::string daemon = std::string("timeout 20 ") + DPHO_SCHED_BIN +
                             " --state-dir " + (dir.path() / "state").string();
  const std::string client =
      std::string("timeout 20 ") + DPHO_SCHED_CLIENT_BIN + " list";
  const fs::path port_file = dir.path() / "port";
  util::write_file(port_file, "70000\n");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--max-runs", daemon + " --max-runs 0"},
      {"--max-runs", daemon + " --max-runs -1"},
      {"--port", client + " --port 70000"},
      {"--port", client + " --port -1"},
      {"--port-file", client + " --port-file " + port_file.string()}};
  for (const auto& [flag, command] : cases) {
    const int status = std::system((command + " >/dev/null 2>" + err).c_str());
    EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 2) << command;
    EXPECT_NE(util::read_file(err).find(flag), std::string::npos) << command;
  }
}

TEST(SchedE2e, TwoTenantsMatchSoloRunsAndShutDownClean) {
  util::TempDir dir("sched-e2e-pair");
  const fs::path state = dir.path() / "state";
  const fs::path events = dir.path() / "events.jsonl";
  Daemon daemon(state, dir.path(),
                {"--metrics-out", events.string()});
  const fs::path spec_a =
      write_spec(dir.path(), tenant_spec("tenant-a", 5, 18));
  const fs::path spec_b =
      write_spec(dir.path(), tenant_spec("tenant-b", 9, 18, /*weight=*/2));
  ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_a.string()), 0);
  ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_b.string()), 0);
  EXPECT_EQ(run_client(daemon.port(), "status tenant-a --wait"), 0);
  EXPECT_EQ(run_client(daemon.port(), "status tenant-b --wait"), 0);

  const fs::path record_a = dir.path() / "a.json";
  const fs::path record_b = dir.path() / "b.json";
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-a --out " + record_a.string()), 0);
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-b --out " + record_b.string()), 0);
  expect_matches_solo(record_a, 5, 18);
  expect_matches_solo(record_b, 9, 18);

  // Each tenant kept its own timeline from submit to done.
  for (const std::string name : {"tenant-a", "tenant-b"}) {
    const fs::path timeline = state / "runs" / name / "timeline.jsonl";
    EXPECT_EQ(count_events(timeline, "sched.run_submit"), 1u) << name;
    EXPECT_EQ(count_events(timeline, "sched.run_done"), 1u) << name;
    EXPECT_EQ(count_events(timeline, "sched.completion"), 18u) << name;
  }

  // SIGTERM drains the serve loop and flushes a dpho.metrics.v1 summary.
  daemon.signal(SIGTERM);
  const int status = daemon.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const fs::path summary = dir.path() / "metrics_summary.json";
  ASSERT_TRUE(fs::exists(summary));
  const util::Json metrics = util::Json::parse(util::read_file(summary));
  EXPECT_TRUE(obs::is_metrics_document(metrics));
  const util::Json& counters = metrics.at("deterministic").at("counters");
  EXPECT_EQ(counters.at("sched.runs_submitted_total").as_number(), 2.0);
  EXPECT_EQ(counters.at("sched.runs_completed_total").as_number(), 2.0);
  EXPECT_GE(counters.at("sched.mux.forwards_total").as_number(), 36.0);
}

TEST(SchedE2e, WorkerKillsLeaveBothTenantsIdenticalToSolo) {
  util::TempDir dir("sched-e2e-kill");
  const fs::path state = dir.path() / "state";
  const fs::path events = dir.path() / "events.jsonl";
  // Two SIGKILLs, one aimed into each tenant's namespace: tenant-a's global
  // task 2 and tenant-b's global task 2^20 + 4 (slot 1, local id 4), both on
  // their first attempt in the daemon's single stream session (batch 0).
  const fs::path plan = dir.path() / "faults.json";
  util::write_file(
      plan,
      R"({"events":[{"kind":"kill_worker","batch":0,"task":2,"attempt":1},)"
      R"({"kind":"kill_worker","batch":0,"task":1048580,"attempt":1}]})"
      "\n");
  Daemon daemon(state, dir.path(),
                {"--fault-plan", plan.string(), "--metrics-out",
                 events.string()});
  const fs::path spec_a =
      write_spec(dir.path(), tenant_spec("tenant-a", 5, 18));
  const fs::path spec_b =
      write_spec(dir.path(), tenant_spec("tenant-b", 9, 18, /*weight=*/2));
  ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_a.string()), 0);
  ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_b.string()), 0);
  EXPECT_EQ(run_client(daemon.port(), "status tenant-a --wait"), 0);
  EXPECT_EQ(run_client(daemon.port(), "status tenant-b --wait"), 0);

  const fs::path record_a = dir.path() / "a.json";
  const fs::path record_b = dir.path() / "b.json";
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-a --out " + record_a.string()), 0);
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-b --out " + record_b.string()), 0);
  // The kills changed nothing the optimizer can see.
  expect_matches_solo(record_a, 5, 18);
  expect_matches_solo(record_b, 9, 18);

  // The obs timeline witnessed both worker deaths and the re-dispatches.
  daemon.signal(SIGTERM);
  daemon.wait();
  EXPECT_GE(count_events(events, "process.worker_death"), 2u);
  EXPECT_GE(count_events(events, "process.redispatch"), 2u);
}

TEST(SchedE2e, SigkillThenResumeFinishesBothTenantsIdenticalToSolo) {
  util::TempDir dir("sched-e2e-resume");
  const fs::path state = dir.path() / "state";
  const std::size_t budget = 60;
  const fs::path spec_a =
      write_spec(dir.path(), tenant_spec("tenant-a", 5, budget));
  const fs::path spec_b =
      write_spec(dir.path(), tenant_spec("tenant-b", 9, budget, /*weight=*/2));
  {
    Daemon daemon(state, dir.path(), {});
    ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_a.string()),
              0);
    ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_b.string()),
              0);
    // SIGKILL -- no drain, no atexit -- once both runs have made progress
    // but neither can plausibly have finished its 60-evaluation budget.
    ASSERT_TRUE(wait_for_events(state / "runs" / "tenant-a" / "timeline.jsonl",
                                "sched.completion", 2));
    ASSERT_TRUE(wait_for_events(state / "runs" / "tenant-b" / "timeline.jsonl",
                                "sched.completion", 2));
    daemon.signal(SIGKILL);
    daemon.wait();
    ASSERT_FALSE(fs::exists(state / "runs" / "tenant-a" / "result.json"));
    ASSERT_FALSE(fs::exists(state / "runs" / "tenant-b" / "result.json"));
  }

  Daemon daemon(state, dir.path(), {"--resume"});
  EXPECT_EQ(run_client(daemon.port(), "status tenant-a --wait"), 0);
  EXPECT_EQ(run_client(daemon.port(), "status tenant-b --wait"), 0);
  const fs::path record_a = dir.path() / "a.json";
  const fs::path record_b = dir.path() / "b.json";
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-a --out " + record_a.string()), 0);
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-b --out " + record_b.string()), 0);
  expect_matches_solo(record_a, 5, budget);
  expect_matches_solo(record_b, 9, budget);
  for (const std::string name : {"tenant-a", "tenant-b"}) {
    const fs::path timeline = state / "runs" / name / "timeline.jsonl";
    EXPECT_EQ(count_events(timeline, "sched.run_resume"), 1u) << name;
    EXPECT_EQ(count_events(timeline, "sched.run_done"), 1u) << name;
  }
}

TEST(SchedE2e, CancelIsolatesTenantsAndRefusalsCarryCodes) {
  util::TempDir dir("sched-e2e-cancel");
  const fs::path state = dir.path() / "state";
  Daemon daemon(state, dir.path(), {});
  const fs::path spec_a =
      write_spec(dir.path(), tenant_spec("tenant-a", 5, 60));
  const fs::path spec_b =
      write_spec(dir.path(), tenant_spec("tenant-b", 9, 18));
  ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_a.string()), 0);
  ASSERT_EQ(run_client(daemon.port(), "submit --spec " + spec_b.string()), 0);

  // Refusals over the wire carry typed codes the client can assert on.
  EXPECT_EQ(run_client(daemon.port(), "submit --spec " + spec_a.string() +
                                          " --expect-error duplicate_run"),
            0);
  EXPECT_EQ(run_client(daemon.port(),
                       "result tenant-a --expect-error not_finished"),
            0);
  EXPECT_EQ(run_client(daemon.port(),
                       "status ghost --expect-error unknown_run"),
            0);

  ASSERT_EQ(run_client(daemon.port(), "cancel tenant-a"), 0);
  EXPECT_EQ(run_client(daemon.port(),
                       "cancel tenant-a --expect-error bad_request"),
            0);

  // The surviving tenant still finishes exactly like its solo run.
  EXPECT_EQ(run_client(daemon.port(), "status tenant-b --wait"), 0);
  const fs::path record_b = dir.path() / "b.json";
  ASSERT_EQ(run_client(daemon.port(),
                       "result tenant-b --out " + record_b.string()), 0);
  expect_matches_solo(record_b, 9, 18);
  EXPECT_EQ(count_events(state / "runs" / "tenant-a" / "timeline.jsonl",
                         "sched.run_cancel"),
            1u);
}

}  // namespace
}  // namespace dpho::sched
