// A real multi-process worker pool behind the ClusterSession API.
//
// Where DaskCluster *simulates* the paper's Summit deployment (section
// 2.2.5), ProcessCluster *is* one at laptop scale: the scheduler (this
// object) listens on a loopback TCP port, fork/execs one dpho_worker
// subprocess per "node", and drives them with length-prefixed JSON frames
// (net/frame.hpp, net/wire.hpp).  Nannies are disabled, exactly like the
// paper's deployment: a worker that dies is never restarted; its in-flight
// task is re-dispatched to a survivor.
//
// Robustness model (DESIGN.md section 11):
//
//   * Liveness: workers heartbeat every heartbeat_interval_seconds.  A
//     worker silent past heartbeat_timeout_seconds is declared hung
//     (FailureCause::kHungProcess), SIGKILLed, and its task re-dispatched.
//     A closed connection (process died) maps to kNodeLoss.
//   * Wall limit: a scheduler-side watchdog SIGKILLs any worker whose task
//     exceeds task_wall_limit_seconds of real time; the task resolves as
//     TaskStatus::kTimeout / kWallLimit and is NOT retried (timeouts are
//     deterministic).  Independently, a *completed* evaluation reporting
//     sim_minutes beyond the farm's task_timeout_minutes classifies as a
//     timeout under the same rule the simulator applies.
//   * Retry: re-dispatch waits retry_backoff_seconds(eval_seed, attempt)
//     (hpc/backoff.hpp) -- capped exponential backoff derived from the
//     per-task evaluation seed, so attempt timing is reproducible no matter
//     how completions interleave.  After FarmConfig::max_attempts the task
//     resolves as kNodeFailure / kNodeLoss.
//   * Degradation: when every worker is dead, pending work is evaluated
//     in-process through the stored RemoteWorkFn (with a logged warning)
//     instead of hanging or aborting.
//   * Determinism: completions are delivered in task-id (submission) order,
//     so the engine's breeding sequence -- and therefore every fitness in
//     the archive -- is identical between a faulty run and a fault-free run
//     of the same seed.  Real wall-clock timing only enters the makespan
//     and job-clock figures.
//   * Crash recovery: snapshot()/restore() reuse FarmSnapshot.  Resolved-
//     but-undelivered completions survive a scheduler crash verbatim;
//     unresolved in-flight tasks are reported back from restore() so the
//     engine re-submits them (a real worker's half-finished evaluation dies
//     with the scheduler).
//
// The same FaultPlan JSON that scripts the simulator drives *real* chaos
// here: kKillWorker SIGKILLs the worker that received the matching attempt,
// kStraggler makes the worker sleep before evaluating, kSchedulerRestart
// tears down and rebinds the listener, kCorruptPayload replaces the received
// result.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hpc/cluster_session.hpp"
#include "hpc/net/frame.hpp"

namespace dpho::hpc {

/// Configuration of the real worker pool.
struct ProcessClusterConfig {
  /// The dpho_worker executable (required).
  std::filesystem::path worker_binary;
  /// Worker processes to spawn; 0 -> FarmConfig::job.nodes.
  std::size_t num_workers = 0;
  /// Extra argv entries appended to every worker launch (test knobs).
  std::vector<std::string> worker_extra_args;
  /// Opaque JSON shipped to workers in the init frame; the worker builds its
  /// evaluator from it (core::eval_config_io).  Empty -> worker defaults.
  std::string eval_config_json;

  double heartbeat_interval_seconds = 0.05;
  double heartbeat_timeout_seconds = 2.0;
  /// A spawned worker that has not completed the hello/init handshake within
  /// this budget is declared lost.
  double spawn_timeout_seconds = 10.0;
  /// Real-time per-task wall limit enforced by the scheduler-side watchdog;
  /// 0 disables it (the heartbeat deadline still catches dead workers).
  double task_wall_limit_seconds = 0.0;

  double retry_backoff_base_seconds = 0.02;
  double retry_backoff_cap_seconds = 0.5;
  /// Real seconds a kStraggler event makes the worker sleep, per unit of the
  /// event's runtime factor.
  double straggler_sleep_seconds = 0.2;
  /// Scale from real elapsed seconds to simulated job-clock minutes (the
  /// figure charged against the 12-hour wall limit).
  double sim_minutes_per_real_second = 1.0;
  /// Evaluate in-process when the pool shrinks to zero (vs. throwing).
  bool allow_inprocess_fallback = true;
};

/// Socket-backed scheduler + real worker subprocesses.  Single-threaded and
/// poll-driven: all progress happens inside the session API calls.
class ProcessCluster final : public ClusterSession {
 public:
  ProcessCluster(const ClusterSpec& cluster, const FarmConfig& farm,
                 ProcessClusterConfig config);
  ~ProcessCluster() override;
  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  BatchReport run_batch(const std::vector<TaskSpec>& specs,
                        const RemoteWorkFn& local_eval) override;
  void stream_begin() override;
  void stream_submit(const TaskSpec& spec,
                     const RemoteWorkFn& local_eval) override;
  std::optional<StreamCompletion> stream_next() override;
  BatchReport stream_end() override;
  std::optional<StreamCompletion> stream_try_next(std::size_t lo,
                                                  std::size_t hi) override;
  void poll(double wait_seconds) override;

  bool stream_active() const override { return stream_active_; }
  std::size_t stream_pending() const override { return undelivered_.size(); }
  double stream_now() const override { return stream_now_; }
  std::size_t stream_node_failures() const override { return node_failures_; }

  double clock_minutes() const override { return clock_minutes_; }
  double remaining_minutes() const override;
  std::size_t live_workers() const override;
  std::size_t batches_run() const override { return batches_run_; }

  FarmSnapshot snapshot() const override;
  std::vector<std::size_t> restore(const FarmSnapshot& snapshot) override;

  std::string backend_name() const override { return "process"; }

  /// Test hooks.
  std::uint16_t port() const { return listener_.port(); }
  ::pid_t worker_pid(std::size_t worker) const;
  const ProcessClusterConfig& config() const { return config_; }

 private:
  enum class TaskPhase : std::uint8_t { kPending, kRunning, kResolved, kDelivered };

  struct Task {
    TaskSpec spec;
    RemoteWorkFn local_eval;
    std::size_t attempt = 0;        // dispatches so far
    double ready_at = 0.0;          // backoff gate (elapsed seconds)
    TaskPhase phase = TaskPhase::kPending;
    std::size_t worker = static_cast<std::size_t>(-1);
    TaskReport report;
    double resolved_minutes = 0.0;  // session minutes at resolution
  };

  struct Worker {
    ::pid_t pid = -1;
    int fd = -1;                    // -1 until the hello frame arrived
    net::FrameReader reader;
    bool spawned = false;
    bool alive = false;             // spawned and not declared dead
    bool connected = false;         // hello received, init sent
    double spawn_deadline = 0.0;
    double last_heartbeat = 0.0;
    std::optional<std::size_t> task;
    double task_started = 0.0;
    std::size_t tasks_run = 0;
  };

  struct PendingConn {
    int fd = -1;
    net::FrameReader reader;
    double accepted_at = 0.0;
  };

  double now_seconds() const;
  double session_minutes() const;
  void ensure_listening();
  void spawn_worker(std::size_t index);
  void spawn_missing_workers();
  void begin_session();
  void pump(double wait_seconds);
  void accept_connections();
  void process_pending_conns();
  void process_worker_frames(std::size_t index);
  void check_deadlines();
  void dispatch_ready_tasks();
  void degrade_if_stranded();
  /// Marks `id` delivered (it must be kResolved), advances the session clock
  /// and emits the process.delivery event -- shared by stream_next and
  /// stream_try_next.
  StreamCompletion deliver(std::size_t id);
  void handle_worker_death(std::size_t index, FailureCause cause);
  void requeue_or_fail(std::size_t task_id, FailureCause cause);
  void resolve_task(std::size_t task_id, TaskReport report);
  void apply_result(std::size_t task_id, WorkResult result);
  void reap_zombies();
  void shutdown_workers();
  double straggler_seconds_for(std::size_t task_id) const;

  ClusterSpec cluster_;
  FarmConfig farm_;
  ProcessClusterConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  net::Listener listener_;
  std::vector<Worker> workers_;
  std::vector<PendingConn> pending_conns_;
  std::vector<::pid_t> zombies_;

  double clock_minutes_ = 0.0;
  std::size_t batches_run_ = 0;

  // Session state.
  bool stream_active_ = false;
  std::size_t session_batch_ = 0;
  double session_started_ = 0.0;         // elapsed-seconds at stream_begin
  double session_offset_minutes_ = 0.0;  // restored mid-session time
  double stream_now_ = 0.0;              // session minutes at last delivery
  std::size_t node_failures_ = 0;
  std::size_t scheduler_restarts_ = 0;
  std::map<std::size_t, Task> tasks_;
  std::set<std::size_t> undelivered_;    // delivery happens in id order
  std::vector<StreamCompletion> delivered_;
  bool degraded_warned_ = false;
};

}  // namespace dpho::hpc
