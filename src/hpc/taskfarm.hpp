// Dask-style task farm over a simulated cluster.
//
// Reproduces the deployment of section 2.2.5: a scheduler and client on the
// batch node hand evaluation tasks to one Dask worker per compute node; each
// task launches one DeePMD training (its own jsrun).  Nannies are disabled:
// when a node dies mid-task, the worker is simply lost and the scheduler
// reassigns the task to a surviving worker.  Per-task runtimes come from the
// work items themselves (real seconds or a surrogate's simulated minutes);
// the farm turns them into a discrete-event schedule, yielding batch
// makespans, per-task completion times, timeout/failed statuses, and the
// running job wall clock that the 12-hour limit is charged against.
//
// Real CPU work is distributed over a ThreadPool, decoupled from the
// simulated time axis -- a 100-node Summit generation can be "replayed" on a
// laptop while preserving its timing structure.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hpc/cluster.hpp"
#include "hpc/thread_pool.hpp"
#include "util/rng.hpp"

namespace dpho::hpc {

/// Fine-grained reason a task-attempt produced no usable fitness.  TaskStatus
/// stays the coarse classification the EA acts on; the cause is bookkeeping
/// surfaced in run records and CSV exports for post-mortem analysis.
enum class FailureCause : std::uint8_t {
  kNone = 0,
  kTrainingFailure,    // payload reported a generic failure (e.g. divergence)
  kNonZeroExit,        // subprocess exited with an unexpected code
  kWallLimit,          // per-task wall limit exceeded
  kHungProcess,        // child stopped responding; killed by the watchdog
  kMissingArtifact,    // training "succeeded" but produced no lcurve.out
  kCorruptArtifact,    // lcurve.out unparseable / truncated
  kNonFiniteFitness,   // lcurve.out held NaN/Inf losses
  kException,          // in-process evaluation threw
  kNodeLoss,           // worker node died and retries were exhausted
  kMpiRelaunch,        // compute-node worker could not start a second MPI job
  kPayloadCorruption,  // injected payload corruption (fault plan)
};

std::string to_string(FailureCause cause);
/// Inverse of to_string(FailureCause); throws util::ParseError on unknown names.
FailureCause failure_cause_from_string(const std::string& name);

/// What one unit of work reports back.
struct WorkResult {
  std::vector<double> fitness;   // objective values (empty on failure)
  double sim_minutes = 0.0;      // simulated training runtime
  bool training_error = false;   // diverged / invalid configuration
  FailureCause cause = FailureCause::kNone;
  std::size_t attempts = 1;      // evaluator-internal attempts (retry policy)
};

/// work(task_index) computes the payload; it must be thread-safe.
using WorkFn = std::function<WorkResult(std::size_t)>;

/// Terminal status of one farmed task.
enum class TaskStatus : std::uint8_t {
  kOk = 0,
  kTimeout,        // exceeded the per-task limit (2 h in the paper)
  kTrainingError,  // payload reported failure
  kNodeFailure,    // lost its node and no retry succeeded
};

std::string to_string(TaskStatus status);
/// Inverse of to_string(TaskStatus); throws util::ParseError on unknown names.
TaskStatus task_status_from_string(const std::string& name);

/// Per-task accounting.
struct TaskReport {
  TaskStatus status = TaskStatus::kOk;
  std::vector<double> fitness;
  double sim_minutes = 0.0;     // time the task occupied its final node
  double finish_minute = 0.0;   // completion time on the job clock
  std::size_t attempts = 1;          // scheduler attempts (node reassignments)
  std::size_t payload_attempts = 1;  // evaluator-internal attempts
  std::size_t node = 0;         // node that ran the final attempt
  FailureCause cause = FailureCause::kNone;
};

/// Per-batch accounting.
struct BatchReport {
  std::vector<TaskReport> tasks;
  double makespan_minutes = 0.0;      // batch wall time on the simulated clock
  std::size_t node_failures = 0;      // nodes lost during the batch
  std::size_t workers_remaining = 0;  // surviving workers after the batch
  std::size_t scheduler_restarts = 0; // injected scheduler outages this batch
};

/// Scripted fault kinds for deterministic fault-injection tests; generalizes
/// the single random `node_failure_probability` knob.
enum class FaultKind : std::uint8_t {
  kKillWorker,        // the node running (batch, task, attempt) dies mid-task
  kStraggler,         // the task's runtime is multiplied by `factor`
  kCorruptPayload,    // the task's result is replaced by corrupt output
  kSchedulerRestart,  // the scheduler is down `delay_minutes` at batch start
};

/// One scripted fault.  `batch` counts run_batch() calls on the cluster
/// (the generation index under the generational engine); `task` is the
/// index within the batch; `attempt` lets kill events target retries
/// (schedule kills at attempts 1..max_attempts to deterministically exhaust
/// the retry budget).
struct FaultEvent {
  FaultKind kind = FaultKind::kKillWorker;
  std::size_t batch = 0;
  std::size_t task = 0;
  std::size_t attempt = 1;      // kKillWorker only
  double factor = 1.0;          // kStraggler runtime multiplier
  double delay_minutes = 0.0;   // kSchedulerRestart outage length
};

/// A deterministic fault schedule driving the simulated farm.
struct FaultPlan {
  std::vector<FaultEvent> events;
  bool empty() const { return events.empty(); }
};

/// True when `plan` scripts a kKillWorker for (batch, task, attempt); every
/// cluster backend looks kills up here.
bool scripted_kill(const FaultPlan& plan, std::size_t batch, std::size_t task,
                   std::size_t attempt);

/// The simulated payload faults `plan` scripts for (batch, task), in plan
/// order: a straggler multiplies the runtime, corruption turns the result
/// into a payload-corruption training error.
void apply_payload_faults(const FaultPlan& plan, std::size_t batch,
                          std::size_t task, WorkResult& result);

/// Marks a payload result corrupt (fault-plan kCorruptPayload).
void corrupt_payload(WorkResult& result);

/// The attempt classifier every cluster backend shares: a reported failure,
/// or the MPI-relaunch block, fails fast (at most one minute) and beats the
/// timeout check, which beats success.  Sets `report`'s status, cause and
/// sim_minutes (the time the attempt holds its node), and its fitness on
/// success.
void classify_attempt(const WorkResult& result, bool mpi_blocked,
                      double task_timeout_minutes, TaskReport& report);

/// Farm configuration.
struct FarmConfig {
  BatchJob job;                          // nodes, wall limit, worker placement
  double task_timeout_minutes = 120.0;   // the paper's 2-hour training cap
  double node_failure_probability = 0.0; // per task-attempt (random faults)
  FaultPlan faults;                      // scripted faults (deterministic)
  std::size_t max_attempts = 3;
  std::size_t real_threads = 1;          // CPU threads for the actual payloads
  std::uint64_t seed = 0;
};

/// One resolved completion handed back by stream_next(), in simulated-time
/// order.  `id` is the caller-chosen task id passed to stream_submit().
struct StreamCompletion {
  std::size_t id = 0;
  TaskReport report;
};

/// A submitted task whose completion has not yet been delivered.  The report
/// is fully resolved at submit time (the farm is a deterministic replay);
/// only its *delivery* waits for the simulated clock to reach `finish_at`.
struct InFlightTask {
  std::size_t id = 0;
  double finish_at = 0.0;  // minutes since stream_begin()
  TaskReport report;
};

/// Serializable mutable state of a DaskCluster; lets a resumed run continue
/// the farm's RNG stream, job clock and node-health map bit-for-bit.  The
/// stream_* fields capture a mid-wave steady-state session so an async run
/// can crash between completions and resume without re-running any task.
struct FarmSnapshot {
  double clock_minutes = 0.0;
  std::size_t live_workers = 0;
  std::vector<std::size_t> tasks_run_on_node;  // SIZE_MAX marks a dead node
  util::RngState rng;
  std::size_t batches_run = 0;
  bool stream_active = false;
  double stream_now = 0.0;
  std::size_t stream_batch = 0;
  std::size_t stream_node_failures = 0;
  std::size_t stream_scheduler_restarts = 0;
  std::vector<double> stream_free_at;          // per-node next-free minute
  std::vector<InFlightTask> stream_in_flight;
  std::vector<StreamCompletion> stream_delivered;
};

/// The scheduler + workers + client ensemble.
class DaskCluster {
 public:
  DaskCluster(const ClusterSpec& cluster, const FarmConfig& config);

  /// Farms `num_tasks` work items; advances the job clock by the makespan.
  /// `eval_seeds` (optional, per task) key the seed-derived retry timing: the
  /// elapsed-before-failure of a randomly killed attempt is a pure function
  /// of (eval_seed, attempt), not a shared RNG draw, so attempt timing is
  /// reproducible regardless of completion interleaving.
  BatchReport run_batch(std::size_t num_tasks, const WorkFn& work,
                        const std::vector<std::uint64_t>& eval_seeds = {});

  /// --- Streaming (steady-state) session -------------------------------
  /// One session is the event-driven analogue of one run_batch() call: it
  /// consumes one batch index (fault events key on it), applies any
  /// scheduler-restart delay up front, and advances the job clock by the
  /// session makespan at stream_end().  Tasks are submitted one at a time
  /// as completions free workers; kills, stragglers, corruption, retries
  /// and the MPI-relaunch rule behave exactly as in run_batch().

  /// Opens a streaming session.  Throws if one is already active.
  void stream_begin();

  /// Schedules one already-computed payload onto the earliest-free live
  /// worker.  Retries node kills up to max_attempts; the fully resolved
  /// report becomes deliverable once the simulated clock reaches its
  /// finish time.  A task submitted now never starts before the latest
  /// delivered completion (causality: the scheduler only learned of the
  /// free slot then).  `eval_seed` keys the seed-derived retry timing (see
  /// run_batch).
  void stream_submit(std::size_t id, WorkResult result,
                     std::uint64_t eval_seed = 0);

  /// Delivers the earliest-finishing in-flight task (ties broken by id)
  /// and advances the session clock to it; nullopt when none remain.
  std::optional<StreamCompletion> stream_next();

  /// Range-scoped variant for shared sessions (hpc::TaskMux): delivers the
  /// earliest-finishing in-flight task ONLY when its id lies in [lo, hi);
  /// nullopt otherwise.  Restricting delivery to the globally earliest
  /// finisher keeps the session clock monotone no matter how tenants
  /// interleave their pulls.
  std::optional<StreamCompletion> stream_try_next(std::size_t lo,
                                                  std::size_t hi);

  /// Closes the session: advances the job clock by the makespan and folds
  /// every delivered report into a BatchReport indexed by task id.  Throws
  /// if undelivered tasks remain.
  BatchReport stream_end();

  bool stream_active() const { return stream_active_; }
  std::size_t stream_pending() const { return stream_in_flight_.size(); }
  double stream_now() const { return stream_now_; }
  std::size_t stream_node_failures() const { return stream_node_failures_; }

  /// Minutes of job wall clock consumed so far.
  double clock_minutes() const { return clock_minutes_; }

  /// Minutes left before the job's wall limit.
  double remaining_minutes() const;

  std::size_t live_workers() const { return live_workers_; }
  const ClusterSpec& cluster() const { return cluster_; }

  /// Number of run_batch() calls so far (fault events key on this).
  std::size_t batches_run() const { return batches_run_; }

  /// Captures the farm's mutable state for checkpointing.
  FarmSnapshot snapshot() const;

  /// Restores a snapshot taken from an identically configured farm.
  void restore(const FarmSnapshot& snapshot);

 private:
  ClusterSpec cluster_;
  FarmConfig config_;
  util::Rng rng_;
  ThreadPool pool_;
  double clock_minutes_ = 0.0;
  std::size_t live_workers_ = 0;
  std::vector<std::size_t> tasks_run_on_node_;  // for the MPI-relaunch rule
  std::size_t batches_run_ = 0;
  // Streaming-session state (valid while stream_active_).
  bool stream_active_ = false;
  double stream_now_ = 0.0;
  std::size_t stream_batch_ = 0;
  std::size_t stream_node_failures_ = 0;
  std::size_t stream_scheduler_restarts_ = 0;
  std::vector<double> stream_free_at_;
  std::vector<InFlightTask> stream_in_flight_;
  std::vector<StreamCompletion> stream_delivered_;
};

}  // namespace dpho::hpc
