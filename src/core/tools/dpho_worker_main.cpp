// dpho_worker: one evaluation worker of hpc::ProcessCluster.
//
// The scheduler fork/execs one of these per "node" (paper section 2.2.5: one
// Dask worker per compute node, nannies disabled).  The worker connects back
// to the scheduler's loopback port, identifies itself with its token, builds
// an evaluator from the init frame's eval_config (core::eval_config_io), and
// then serves task frames until shutdown or EOF -- a dead scheduler orphans
// the worker, which simply exits.
//
// Liveness: a background thread heartbeats at the scheduler-chosen interval;
// the scheduler declares a silent worker hung and SIGKILLs it.  Test knobs:
//   --hang-on-task N        stop heartbeating and sleep forever when task id
//                           N arrives (drives the kHungProcess death path)
//   DPHO_WORKER_EVAL_SLEEP  real seconds to sleep before every evaluation
//                           (widens race windows for chaos tests)
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/eval_adapter.hpp"
#include "core/eval_config_io.hpp"
#include "core/evaluator.hpp"
#include "ea/individual.hpp"
#include "hpc/net/connection.hpp"
#include "hpc/net/wire.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/uuid.hpp"

namespace {

using namespace dpho;

int worker_main(int argc, char** argv) {
  util::ArgParser args;
  args.add_flag("--port", "scheduler loopback port (required)");
  args.add_flag("--token", "worker slot index assigned by the scheduler");
  args.add_flag("--hang-on-task", "stop heartbeating and hang on this task id");
  std::int64_t port = 0;
  std::int64_t token = 0;
  std::int64_t hang_on_task = -1;
  try {
    args.parse(argc, argv);
    port = args.get("--port", port);
    token = args.get("--token", token);
    hang_on_task = args.get("--hang-on-task", hang_on_task);
  } catch (const util::ParseError& e) {
    util::log_error() << "dpho_worker: " << e.what();
    return 2;
  }
  if (port < 1 || port > 65535) {
    util::log_error() << "dpho_worker: --port in [1, 65535] is required";
    return 2;
  }
  if (token < 0) {
    util::log_error() << "dpho_worker: --token must be >= 0, got " << token;
    return 2;
  }
  const double eval_sleep = [] {
    const char* raw = std::getenv("DPHO_WORKER_EVAL_SLEEP");
    return raw ? std::atof(raw) : 0.0;
  }();

  // Results and heartbeats share the socket; Connection::send serializes them.
  hpc::net::Connection link(
      hpc::net::connect_loopback(static_cast<std::uint16_t>(port)),
      hpc::net::kMaxFramePayload);
  if (!link.send(hpc::net::encode_hello(static_cast<std::size_t>(token), ::getpid())
                     .dump())) {
    return 1;
  }

  // The init frame configures the evaluator and the heartbeat cadence.
  const std::optional<std::string> init_frame = hpc::net::read_frame(link.fd());
  if (!init_frame) return 1;
  const util::Json init = util::Json::parse(*init_frame);
  if (hpc::net::message_type(init) != hpc::net::kMsgInit) {
    util::log_error() << "dpho_worker: expected init, got another frame";
    return 2;
  }
  const double heartbeat_interval =
      init.number_or("heartbeat_interval_seconds", 0.05);
  const std::unique_ptr<core::Evaluator> evaluator = core::make_evaluator(
      core::eval_backend_config_from_json(init.at("eval_config")));

  std::atomic<bool> heartbeats_enabled{true};
  std::atomic<bool> done{false};
  std::thread heartbeat([&] {
    std::uint64_t seq = 0;
    while (!done.load(std::memory_order_relaxed)) {
      if (heartbeats_enabled.load(std::memory_order_relaxed)) {
        if (!link.send(hpc::net::encode_heartbeat(seq++).dump())) break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(heartbeat_interval));
    }
  });

  int exit_code = 0;
  for (;;) {
    const std::optional<std::string> frame = hpc::net::read_frame(link.fd());
    if (!frame) break;  // scheduler died or closed the connection
    const util::Json message = util::Json::parse(*frame);
    const std::string type = hpc::net::message_type(message);
    if (type == hpc::net::kMsgShutdown) break;
    if (type != hpc::net::kMsgTask) continue;

    const hpc::TaskSpec spec = hpc::net::decode_task(message);
    if (hang_on_task >= 0 && spec.id == static_cast<std::size_t>(hang_on_task)) {
      // Simulate a hung process: the evaluation thread is stuck AND the
      // heartbeat stops, so the scheduler's deadline (not this process)
      // must resolve the task.
      heartbeats_enabled.store(false, std::memory_order_relaxed);
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    }
    const double straggle = hpc::net::task_straggler_seconds(message);
    if (straggle > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(straggle));
    }
    if (eval_sleep > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(eval_sleep));
    }

    hpc::WorkResult result;
    try {
      ea::Individual individual;
      individual.genome = spec.genome;
      individual.uuid = util::Uuid::parse(spec.uuid);
      result = core::to_work_result(
          evaluator->evaluate(individual, spec.eval_seed));
    } catch (const std::exception& e) {
      util::log_error() << "dpho_worker: evaluation of task " << spec.id
                        << " threw: " << e.what();
      result.training_error = true;
      result.cause = hpc::FailureCause::kException;
    }
    if (!link.send(hpc::net::encode_result(spec.id, result).dump())) break;
  }

  done.store(true, std::memory_order_relaxed);
  heartbeat.join();
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return worker_main(argc, argv);
  } catch (const std::exception& e) {
    dpho::util::log_error() << "dpho_worker: " << e.what();
    return 1;
  }
}
