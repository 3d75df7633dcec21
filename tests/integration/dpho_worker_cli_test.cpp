// dpho_worker's flags: --port and --token are read as integers and checked
// before the worker connects, so a bad value exits 2 with a message that
// names the flag instead of being cast.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "util/fs.hpp"

#ifndef DPHO_WORKER_BIN
#define DPHO_WORKER_BIN "dpho_worker"
#endif

namespace dpho {
namespace {

struct Outcome {
  int code = -1;
  std::string err;
};

Outcome run_worker(const std::string& flags) {
  const util::TempDir dir("dpho-worker-cli");
  const std::string err_file = (dir.path() / "err.txt").string();
  const int status = std::system((std::string(DPHO_WORKER_BIN) + " " + flags +
                                  " >/dev/null 2>" + err_file)
                                     .c_str());
  return {WEXITSTATUS(status), util::read_file(err_file)};
}

void expect_usage_error(const std::string& flags, const std::string& flag) {
  const Outcome outcome = run_worker(flags);
  EXPECT_EQ(outcome.code, 2) << flags;
  EXPECT_NE(outcome.err.find(flag), std::string::npos) << flags << ": " << outcome.err;
}

TEST(DphoWorkerCli, PortOutsideTheTcpRangeExitsTwo) {
  expect_usage_error("", "--port");
  expect_usage_error("--port 0", "--port");
  expect_usage_error("--port 70000", "--port");
  expect_usage_error("--port -5", "--port");
  expect_usage_error("--port 1e30", "--port");
}

TEST(DphoWorkerCli, TokenThatIsNotANonNegativeIntegerExitsTwo) {
  expect_usage_error("--port 1 --token -1", "--token");
  expect_usage_error("--port 1 --token 1e30", "--token");
  expect_usage_error("--port 1 --token 2.5", "--token");
  expect_usage_error("--port 1 --token 99999999999999999999", "--token");
}

}  // namespace
}  // namespace dpho
