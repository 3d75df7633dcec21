// dp_serve: batched inference daemon for archived Pareto-front potentials.
//
//   dp_serve <archive_dir> [--select EXPR] [--cache N] [--max-queue N]
//            [--max-frame-bytes N] [--port-file FILE] [--debug-delay S]
//            [--threads N] [--metrics-out FILE] [--metrics-interval N]
//
// Loads the dp::ModelArchive at <archive_dir>, serves the models matched by
// --select (ModelArchive::select grammar: "all", "rank=0", "rmse_f_val<=0.2",
// or a comma list of ids/indices) on an ephemeral loopback port, and answers
// batched energy/force requests over the hpc::net frame protocol (see
// serve/protocol.hpp).  The port is printed on stdout and, with --port-file,
// written to a file clients can poll.
//
// SIGTERM/SIGINT trigger a graceful drain: the listener closes, queued and
// in-flight requests still get their replies, then the daemon exits 0.
// --metrics-out streams the serve.* event timeline and writes
// metrics_summary.json next to it on exit.
// --debug-delay holds every request for S seconds in the worker -- the chaos
// harness uses it to land signals while a request is provably in flight.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"

namespace {

// Set by the signal handler, polled by the main loop.
std::atomic<bool> g_shutdown{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the shutdown flag is written from a signal handler");

void on_signal(int) { g_shutdown.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace dpho;
  util::ArgParser args;
  args.add_flag("--select", "which models to serve (default all)")
      .add_flag("--cache", "resident model cache capacity, default 4")
      .add_flag("--max-queue", "queued requests before overload replies, default 64")
      .add_flag("--max-frame-bytes", "per-connection frame cap, default 16 MiB")
      .add_flag("--port-file", "write the bound port number to this file")
      .add_flag("--debug-delay", "hold each request this many seconds (chaos hook)")
      .add_flag("--help", "show this message", false);
  const util::BackendFlagOptions backend_options{.cluster = false,
                                                 .default_threads = 2};
  util::add_backend_flags(args, backend_options);
  const std::string usage_text = args.usage("dp_serve <archive_dir>");

  serve::ServerOptions options;
  util::BackendFlags backend;
  try {
    args.parse(argc, argv);
    backend = util::parse_backend_flags(args, backend_options);
    options.cache_capacity =
        static_cast<std::size_t>(args.get("--cache", std::int64_t{4}));
    options.max_queue =
        static_cast<std::size_t>(args.get("--max-queue", std::int64_t{64}));
    options.max_frame_bytes = static_cast<std::uint32_t>(args.get(
        "--max-frame-bytes",
        static_cast<std::int64_t>(hpc::net::kMaxFramePayload)));
    options.debug_delay_seconds = args.get("--debug-delay", 0.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dp_serve: %s\n%s", e.what(), usage_text.c_str());
    return 2;
  }
  if (args.has("--help")) {
    std::fputs(usage_text.c_str(), stdout);
    return 0;
  }
  if (args.positional().size() != 1) {
    std::fputs(usage_text.c_str(), stderr);
    return 2;
  }
  options.archive_dir = args.positional()[0];
  options.selector = args.get("--select", std::string("all"));
  options.threads = backend.threads;

  if (!backend.metrics_out.empty()) {
    try {
      obs::events().open(backend.metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dp_serve: --metrics-out: %s\n", e.what());
      return 2;
    }
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    serve::Server server(std::move(options));
    server.start();
    std::printf("dp_serve: serving %zu model(s) on 127.0.0.1:%u\n",
                server.catalog().size(), server.port());
    std::fflush(stdout);
    if (args.has("--port-file")) {
      util::atomic_write_file(args.get("--port-file", std::string()),
                              std::to_string(server.port()) + "\n");
    }
    while (!g_shutdown.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::printf("dp_serve: draining\n");
    std::fflush(stdout);
    server.request_drain();
    server.wait();
    server.stop();
    std::printf("dp_serve: served %llu request(s)\n",
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
    std::fprintf(stderr, "dp_serve: %s\n", e.what());
    return 1;
  }
}
