// dpho_sched: multi-tenant HPO scheduler daemon over one shared worker pool.
//
//   dpho_sched --state-dir DIR [--max-runs N] [--resume] [--port-file FILE]
//              [--fault-plan FILE] [--failure-rate P]
//              [--cluster sim|process] [--workers N] [--worker-binary PATH]
//              [--threads N] [--metrics-out FILE] [--metrics-interval N]
//
// Listens on an ephemeral loopback port (printed on stdout and, with
// --port-file, written atomically for clients to poll) and accepts HPO run
// submissions over the sched protocol (sched/protocol.hpp).  All runs share
// ONE worker pool of --workers processes (or one simulated farm) behind a
// fair-share task mux; each run checkpoints continuously under
// --state-dir/runs/<name>/ so a killed daemon restarted with --resume picks
// every interrupted run back up exactly like the single-run --resume path.
//
// SIGTERM/SIGINT stop the serve loop after the current round and exit 0;
// the on-disk checkpoints are the recovery point (the chaos harness SIGKILLs
// the daemon mid-run and asserts the resumed archives stay byte-identical).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>

#include "core/eval_config_io.hpp"
#include "core/evaluator.hpp"
#include "hpc/faultplan_io.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "sched/server.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"

namespace {

// Set by the signal handler and the main thread, read by the watcher thread.
std::atomic<bool> g_shutdown{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the shutdown flag is written from a signal handler");

void on_signal(int) { g_shutdown.store(true); }

// The dpho_worker binary normally sits next to dpho_sched in the build tree;
// resolve it relative to the running executable so `dpho_sched --cluster
// process` works from any CWD without flags.
std::filesystem::path default_worker_binary() {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "dpho_worker";
  return self.parent_path() / "dpho_worker";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpho;
  util::ArgParser args;
  args.add_flag("--state-dir", "durable run state root (required)")
      .add_flag("--max-runs", "active tenants accepted at once, default 8")
      .add_flag("--resume", "resume interrupted runs from --state-dir", false)
      .add_flag("--port-file", "write the bound port number to this file")
      .add_flag("--fault-plan", "JSON file of scripted pool fault events")
      .add_flag("--failure-rate",
                "node-failure probability per task, default 0")
      .add_flag("--step-wait",
                "pool-driving budget per loop round in seconds, default 0.002")
      .add_flag("--help", "show this message", false);
  const util::BackendFlagOptions backend_options{.cluster = true,
                                                 .default_threads = 2};
  util::add_backend_flags(args, backend_options);
  const std::string usage_text = args.usage("dpho_sched --state-dir DIR");

  sched::ServerOptions options;
  util::BackendFlags backend;
  try {
    args.parse(argc, argv);
    backend = util::parse_backend_flags(args, backend_options);
    options.scheduler.max_runs =
        static_cast<std::size_t>(args.get("--max-runs", std::int64_t{8}));
    options.step_wait_seconds = args.get("--step-wait", 0.002);
    if (args.has("--fault-plan")) {
      options.scheduler.farm.faults =
          hpc::load_fault_plan(args.get("--fault-plan", std::string()));
    }
    options.scheduler.farm.node_failure_probability =
        args.get("--failure-rate", 0.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpho_sched: %s\n%s", e.what(), usage_text.c_str());
    return 2;
  }
  if (args.has("--help")) {
    std::fputs(usage_text.c_str(), stdout);
    return 0;
  }
  if (!args.has("--state-dir")) {
    std::fprintf(stderr, "dpho_sched: --state-dir is required\n%s",
                 usage_text.c_str());
    return 2;
  }
  options.scheduler.state_dir = args.get("--state-dir", std::string());
  options.scheduler.pool_workers = backend.workers == 0 ? 3 : backend.workers;
  options.scheduler.farm.real_threads = backend.threads;

  options.scheduler.backend.kind =
      hpc::cluster_backend_from_string(backend.cluster);
  if (options.scheduler.backend.kind == hpc::ClusterBackendKind::kProcess) {
    hpc::ProcessClusterConfig& process = options.scheduler.backend.process;
    process.worker_binary = backend.worker_binary.empty()
                                ? default_worker_binary()
                                : std::filesystem::path(backend.worker_binary);
    process.num_workers = options.scheduler.pool_workers;
    // Ship the same backend configuration the local evaluator uses, so a
    // process-cluster run reproduces the sim run's fitness bit for bit.
    process.eval_config_json =
        core::eval_backend_config_to_json(core::EvalBackendConfig{}).dump();
  }

  if (!backend.metrics_out.empty()) {
    try {
      obs::events().open(backend.metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dpho_sched: --metrics-out: %s\n", e.what());
      return 2;
    }
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    const std::unique_ptr<core::Evaluator> evaluator =
        core::make_evaluator(core::EvalBackendConfig{});
    sched::Server server(std::move(options), *evaluator);
    server.start();
    std::size_t resumed = 0;
    if (args.has("--resume")) resumed = server.scheduler().resume_all();
    std::printf("dpho_sched: listening on 127.0.0.1:%u (%zu run(s) resumed)\n",
                server.port(), resumed);
    std::fflush(stdout);
    if (args.has("--port-file")) {
      util::atomic_write_file(args.get("--port-file", std::string()),
                              std::to_string(server.port()) + "\n");
    }
    // A signal-watcher thread flips the server's stop flag so the serve loop
    // (which may be inside a pool pump) exits after its current round.
    std::thread watcher([&server] {
      while (!g_shutdown.load() && !server.stopping()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      server.request_stop();
    });
    server.serve_forever();
    g_shutdown.store(true);
    watcher.join();
    std::printf("dpho_sched: stopped after %llu request(s)\n",
                static_cast<unsigned long long>(server.requests_served()));
    if (!backend.metrics_out.empty()) {
      const std::filesystem::path summary =
          std::filesystem::path(backend.metrics_out).parent_path() /
          "metrics_summary.json";
      util::write_file(summary, obs::metrics().to_json().dump(2) + "\n");
      obs::events().close();
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpho_sched: %s\n", e.what());
    return 1;
  }
}
