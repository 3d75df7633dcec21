// End-to-end chaos coverage for the dp_serve daemon as a real subprocess:
// client round trips, SIGTERM drain mid-request, SIGKILL witnessed by the
// obs timeline, typed error replies, and cache thrash under --cache 1.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

#include "serve_harness.hpp"

namespace dpho::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Spawns the dp_serve binary and resolves its port through --port-file.
class Daemon {
 public:
  Daemon(const fs::path& archive, std::vector<std::string> extra_args,
         const fs::path& workdir) {
    port_file_ = workdir / "port";
    std::vector<std::string> argv_store = {DPHO_DP_SERVE_BIN, archive.string(),
                                           "--port-file", port_file_.string()};
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
      ADD_FAILURE() << "daemon never published its port";
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
  pid_t pid() const { return pid_; }

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

int run_client(const std::string& args) {
  const std::string command = std::string(DPHO_DP_SERVE_CLIENT_BIN) + " " + args;
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Waits until the JSONL timeline contains an event of `kind` (the sink
/// flushes per line, so mid-run polling is reliable).
bool wait_for_event(const fs::path& timeline, const std::string& kind,
                    std::chrono::seconds budget = std::chrono::seconds(20)) {
  const std::string needle = "\"kind\":\"" + kind + "\"";
  const auto deadline = Clock::now() + budget;
  while (Clock::now() < deadline) {
    if (fs::exists(timeline) &&
        util::read_file(timeline).find(needle) != std::string::npos) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::set<std::string> event_kinds(const fs::path& timeline) {
  std::set<std::string> kinds;
  for (const util::Json& event : obs::load_timeline(timeline)) {
    kinds.insert(event.string_or("kind", ""));
  }
  return kinds;
}

TEST(ServeE2e, OutOfRangeIntegerFlagsExitTwoNamingTheFlag) {
  // Both tools range-check every count before the daemon binds or the client
  // connects; `timeout` keeps a wrapped -1 from hanging the suite.
  util::TempDir dir;
  const std::string err = (dir.path() / "stderr.txt").string();
  const std::string serve =
      std::string("timeout 20 ") + DPHO_DP_SERVE_BIN + " " + dir.path().string();
  const std::string client = std::string("timeout 20 ") + DPHO_DP_SERVE_CLIENT_BIN;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--cache", serve + " --cache 0"},
      {"--max-queue", serve + " --max-queue -1"},
      {"--max-frame-bytes", serve + " --max-frame-bytes 0"},
      {"--max-frame-bytes", serve + " --max-frame-bytes 4294967296"},
      {"--port", client + " --port 70000"},
      {"--port", client + " --port 0"},
      {"--batch", client + " --port 1 --batch 0"},
      {"--requests", client + " --port 1 --requests -1"}};
  for (const auto& [flag, command] : cases) {
    const int status = std::system((command + " >/dev/null 2>" + err).c_str());
    EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 2) << command;
    EXPECT_NE(util::read_file(err).find(flag), std::string::npos) << command;
  }
}

TEST(ServeE2e, ClientRoundTripAndCleanShutdown) {
  util::TempDir dir;
  test_harness::make_archive(dir.path() / "a", 2);
  Daemon daemon(dir.path() / "a", {}, dir.path());
  const std::string port = std::to_string(daemon.port());

  EXPECT_EQ(run_client("--port " + port + " --requests 4 --batch 2 --forces"), 0);
  EXPECT_EQ(run_client("--port " + port + " --model m1 --requests 2 --quiet"), 0);

  // A client that disconnects mid-frame must not take the daemon down.
  EXPECT_EQ(run_client("--port " + port + " --partial-frame --quiet"), 0);
  EXPECT_EQ(run_client("--port " + port + " --requests 1 --quiet"), 0);

  daemon.signal(SIGTERM);
  const int status = daemon.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeE2e, SigtermDrainStillAnswersTheInFlightRequest) {
  util::TempDir dir;
  test_harness::make_archive(dir.path() / "a", 1);
  const fs::path timeline = dir.path() / "timeline.jsonl";
  Daemon daemon(dir.path() / "a",
                {"--debug-delay", "0.5", "--metrics-out", timeline.string()},
                dir.path());

  // Fire one slow request from a background thread, then land SIGTERM while
  // the worker provably holds it (the serve.request event has been flushed
  // but serve.reply is still 0.5 s away).
  int client_exit = -1;
  std::thread client([&] {
    client_exit = run_client("--port " + std::to_string(daemon.port()) +
                             " --requests 1 --forces --quiet");
  });
  ASSERT_TRUE(wait_for_event(timeline, "serve.request"));
  daemon.signal(SIGTERM);
  client.join();
  EXPECT_EQ(client_exit, 0) << "drain dropped an in-flight request";

  const int status = daemon.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const std::set<std::string> kinds = event_kinds(timeline);
  EXPECT_TRUE(kinds.count("serve.start"));
  EXPECT_TRUE(kinds.count("serve.drain"));
  EXPECT_TRUE(kinds.count("serve.reply"));
  EXPECT_TRUE(kinds.count("serve.stop"));

  // The daemon also leaves a valid metrics summary next to the timeline.
  const util::Json summary =
      util::Json::parse(util::read_file(dir.path() / "metrics_summary.json"));
  EXPECT_TRUE(obs::is_metrics_document(summary));
}

TEST(ServeE2e, SigkillMidRequestIsWitnessedByTheTimeline) {
  util::TempDir dir;
  test_harness::make_archive(dir.path() / "a", 1);
  const fs::path timeline = dir.path() / "timeline.jsonl";
  Daemon daemon(dir.path() / "a",
                {"--debug-delay", "2.0", "--metrics-out", timeline.string()},
                dir.path());

  int client_exit = -1;
  std::thread client([&] {
    client_exit = run_client("--port " + std::to_string(daemon.port()) +
                             " --requests 1 --quiet 2>/dev/null");
  });
  ASSERT_TRUE(wait_for_event(timeline, "serve.request"));
  daemon.signal(SIGKILL);
  client.join();
  EXPECT_NE(client_exit, 0) << "a SIGKILLed daemon cannot have replied";

  const int status = daemon.wait();
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The flushed timeline is the witness: the request went in-flight and
  // nothing after it ever happened.
  const std::set<std::string> kinds = event_kinds(timeline);
  EXPECT_TRUE(kinds.count("serve.start"));
  EXPECT_TRUE(kinds.count("serve.request"));
  EXPECT_FALSE(kinds.count("serve.reply"));
  EXPECT_FALSE(kinds.count("serve.stop"));
}

TEST(ServeE2e, ExpectedErrorCodesRoundTrip) {
  util::TempDir dir;
  test_harness::make_archive(dir.path() / "a", 1);
  Daemon daemon(dir.path() / "a", {}, dir.path());
  const std::string port = std::to_string(daemon.port());

  EXPECT_EQ(run_client("--port " + port +
                       " --model nope --expect-error unknown_model --quiet"
                       " 2>/dev/null"),
            0);
  // Expecting an error that never comes must fail.
  EXPECT_EQ(run_client("--port " + port +
                       " --expect-error overloaded --requests 1 --quiet"
                       " 2>/dev/null"),
            1);
  daemon.signal(SIGTERM);
  EXPECT_EQ(WEXITSTATUS(daemon.wait()), 0);
}

TEST(ServeE2e, CacheThrashShowsUpInTheMetricsSummary) {
  util::TempDir dir;
  test_harness::make_archive(dir.path() / "a", 2);
  const fs::path timeline = dir.path() / "timeline.jsonl";
  Daemon daemon(dir.path() / "a",
                {"--cache", "1", "--metrics-out", timeline.string()},
                dir.path());
  const std::string port = std::to_string(daemon.port());

  // Alternate models against a single-slot cache: every switch evicts.
  EXPECT_EQ(run_client("--port " + port + " --model m0 --requests 2 --quiet"), 0);
  EXPECT_EQ(run_client("--port " + port + " --model m1 --requests 2 --quiet"), 0);
  EXPECT_EQ(run_client("--port " + port + " --model m0 --requests 2 --quiet"), 0);

  daemon.signal(SIGTERM);
  EXPECT_EQ(WEXITSTATUS(daemon.wait()), 0);

  const util::Json summary =
      util::Json::parse(util::read_file(dir.path() / "metrics_summary.json"));
  ASSERT_TRUE(obs::is_metrics_document(summary));
  const util::Json& counters = summary.at("deterministic").at("counters");
  EXPECT_GE(counters.number_or("serve.cache_misses", 0.0), 3.0);
  EXPECT_GE(counters.number_or("serve.cache_evictions", 0.0), 2.0);
  EXPECT_GE(counters.number_or("serve.replies", 0.0), 6.0);
}

}  // namespace
}  // namespace dpho::serve
