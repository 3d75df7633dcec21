// The dpho_sched daemon shell: hpc::net framing in front of one Scheduler.
//
// Single-threaded by design: the Scheduler interleaves N engine event loops
// that share RNGs, archives and one TaskMux, so the server multiplexes
// client sockets AND run stepping from one poll loop instead of spawning
// request threads.  Each round is one zero-wait hpc::net::ConnectionServer
// poll (accept, then read only the peers poll() flags as ready; an oversized
// length prefix drops that peer alone), answers each request inline, then
// gives the scheduler one step() -- with a process-backend pool the step's
// pump doubles as the loop's pacing wait.
//
// Requests never block on evaluation work: submit returns once the initial
// wave is queued at the mux, status/list/cancel are O(runs), and a finished
// run's record is read back from its result.json artifact.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "hpc/net/connection.hpp"
#include "sched/scheduler.hpp"

namespace dpho::sched {

struct ServerOptions {
  SchedulerOptions scheduler;
  /// Per-connection frame cap; a larger declared length drops the peer.
  std::uint32_t max_frame_bytes = hpc::net::kMaxFramePayload;
  /// Pool-driving budget handed to Scheduler::step each round; also the
  /// idle-round sleep so a sim-backed daemon does not spin.
  double step_wait_seconds = 0.002;
};

class Server {
 public:
  Server(ServerOptions options, const core::Evaluator& evaluator);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds an ephemeral loopback port (valid port() afterwards).
  void start();
  std::uint16_t port() const { return connections_.port(); }

  Scheduler& scheduler() { return scheduler_; }

  /// One round: accept, read, reply, step.  Tests drive this directly.
  void poll_once();

  /// poll_once until request_stop(); returns once stopped.
  void serve_forever();

  /// Stops serve_forever after its current round.  Safe from a signal
  /// watcher thread; idempotent.
  void request_stop() { stop_.store(true, std::memory_order_release); }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  /// Requests answered (result or error) since start().
  std::uint64_t requests_served() const { return requests_served_; }

 private:
  void handle_frame(const hpc::net::ConnectionServer::Peer& connection,
                    const std::string& payload);
  /// The request->reply map; throws SchedError / util::Error on refusal.
  util::Json dispatch(const util::Json& message);

  ServerOptions options_;
  Scheduler scheduler_;
  hpc::net::ConnectionServer connections_;
  std::atomic<bool> stop_{false};
  std::uint64_t requests_served_ = 0;
};

}  // namespace dpho::sched
