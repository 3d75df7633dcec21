#include "hpc/taskfarm.hpp"

#include <algorithm>
#include <queue>

#include "hpc/backoff.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace dpho::hpc {

namespace {

/// Layout shared by all simulated-minutes histograms: 0.5 min .. ~17 h.
const obs::BucketLayout& sim_minutes_layout() {
  static const obs::BucketLayout layout = obs::BucketLayout::exponential(0.5, 2.0, 12);
  return layout;
}

/// Records one resolved task into the deterministic metrics section and the
/// event timeline.  Called only from the single-threaded discrete-event
/// resolution paths, so counter/histogram updates happen in a fixed order.
void record_task_metrics(std::size_t id, const TaskReport& report) {
  auto& registry = obs::metrics();
  registry.counter("farm.tasks_total").add(1);
  registry.counter("farm.task_retries_total")
      .add(report.attempts > 0 ? static_cast<std::int64_t>(report.attempts) - 1 : 0);
  registry.counter("farm.task_failures_total")
      .add(report.status == TaskStatus::kOk ? 0 : 1);
  registry
      .histogram("farm.task_sim_minutes", sim_minutes_layout(),
                 obs::Section::kDeterministic)
      .record(report.sim_minutes);
  obs::events().emit("farm.task",
                     {{"id", static_cast<std::int64_t>(id)},
                      {"status", to_string(report.status)},
                      {"cause", to_string(report.cause)},
                      {"attempts", static_cast<std::int64_t>(report.attempts)},
                      {"node", static_cast<std::int64_t>(report.node)},
                      {"sim_minutes", report.sim_minutes},
                      {"finish_minute", report.finish_minute}});
}

/// Simulated minutes a killed attempt ran before the node died.  Scripted
/// kills use a fixed half-run; random kills derive the fraction from the
/// task's evaluation seed and attempt index, NOT from the farm's shared RNG
/// stream -- a shared stream would make retry timing depend on global draw
/// order (i.e. on completion interleaving), destroying reproducibility.
double kill_elapsed_minutes(bool scripted, double run_cap,
                            std::uint64_t eval_seed, std::size_t task,
                            std::size_t attempt) {
  if (scripted) return 0.5 * run_cap;
  const std::uint64_t key = util::hash_combine(
      eval_seed, util::hash_combine(util::hash_mix(task), attempt));
  return run_cap * seeded_unit(key);
}

/// Batch-level roll-up: failures, restarts, and how busy the (simulated)
/// allocation was while the batch ran.
void record_batch_metrics(const BatchReport& report, std::size_t total_nodes) {
  auto& registry = obs::metrics();
  registry.counter("farm.batches_total").add(1);
  registry.counter("farm.node_failures_total")
      .add(static_cast<std::int64_t>(report.node_failures));
  registry.counter("farm.scheduler_restarts_total")
      .add(static_cast<std::int64_t>(report.scheduler_restarts));
  double busy_minutes = 0.0;
  for (const TaskReport& task : report.tasks) busy_minutes += task.sim_minutes;
  const double capacity = report.makespan_minutes * static_cast<double>(total_nodes);
  registry.gauge("farm.busy_fraction")
      .set(capacity > 0.0 ? busy_minutes / capacity : 0.0);
}

}  // namespace

std::string to_string(TaskStatus status) {
  switch (status) {
    case TaskStatus::kOk: return "ok";
    case TaskStatus::kTimeout: return "timeout";
    case TaskStatus::kTrainingError: return "training_error";
    case TaskStatus::kNodeFailure: return "node_failure";
  }
  throw util::ValueError("invalid task status");
}

TaskStatus task_status_from_string(const std::string& name) {
  for (const TaskStatus status :
       {TaskStatus::kOk, TaskStatus::kTimeout, TaskStatus::kTrainingError,
        TaskStatus::kNodeFailure}) {
    if (to_string(status) == name) return status;
  }
  throw util::ParseError("unknown task status: " + name);
}

std::string to_string(FailureCause cause) {
  switch (cause) {
    case FailureCause::kNone: return "none";
    case FailureCause::kTrainingFailure: return "training_failure";
    case FailureCause::kNonZeroExit: return "nonzero_exit";
    case FailureCause::kWallLimit: return "wall_limit";
    case FailureCause::kHungProcess: return "hung_process";
    case FailureCause::kMissingArtifact: return "missing_artifact";
    case FailureCause::kCorruptArtifact: return "corrupt_artifact";
    case FailureCause::kNonFiniteFitness: return "nonfinite_fitness";
    case FailureCause::kException: return "exception";
    case FailureCause::kNodeLoss: return "node_loss";
    case FailureCause::kMpiRelaunch: return "mpi_relaunch";
    case FailureCause::kPayloadCorruption: return "payload_corruption";
  }
  throw util::ValueError("invalid failure cause");
}

FailureCause failure_cause_from_string(const std::string& name) {
  for (const FailureCause cause :
       {FailureCause::kNone, FailureCause::kTrainingFailure,
        FailureCause::kNonZeroExit, FailureCause::kWallLimit,
        FailureCause::kHungProcess, FailureCause::kMissingArtifact,
        FailureCause::kCorruptArtifact, FailureCause::kNonFiniteFitness,
        FailureCause::kException, FailureCause::kNodeLoss,
        FailureCause::kMpiRelaunch, FailureCause::kPayloadCorruption}) {
    if (to_string(cause) == name) return cause;
  }
  throw util::ParseError("unknown failure cause: " + name);
}

bool scripted_kill(const FaultPlan& plan, std::size_t batch, std::size_t task,
                   std::size_t attempt) {
  for (const FaultEvent& event : plan.events) {
    if (event.kind == FaultKind::kKillWorker && event.batch == batch &&
        event.task == task && event.attempt == attempt) {
      return true;
    }
  }
  return false;
}

void corrupt_payload(WorkResult& result) {
  result.fitness.clear();
  result.training_error = true;
  result.cause = FailureCause::kPayloadCorruption;
}

void apply_payload_faults(const FaultPlan& plan, std::size_t batch,
                          std::size_t task, WorkResult& result) {
  for (const FaultEvent& event : plan.events) {
    if (event.batch != batch || event.task != task) continue;
    if (event.kind == FaultKind::kStraggler) result.sim_minutes *= event.factor;
    if (event.kind == FaultKind::kCorruptPayload) corrupt_payload(result);
  }
}

void classify_attempt(const WorkResult& result, bool mpi_blocked,
                      double task_timeout_minutes, TaskReport& report) {
  if (mpi_blocked || result.training_error) {
    // Fast failure: the dp subprocess exits almost immediately.
    report.sim_minutes = std::min(1.0, result.sim_minutes);
    report.status = TaskStatus::kTrainingError;
    report.cause = mpi_blocked ? FailureCause::kMpiRelaunch
                   : result.cause != FailureCause::kNone
                       ? result.cause
                       : FailureCause::kTrainingFailure;
  } else if (result.sim_minutes > task_timeout_minutes) {
    report.sim_minutes = task_timeout_minutes;
    report.status = TaskStatus::kTimeout;
    report.cause = result.cause != FailureCause::kNone ? result.cause
                                                       : FailureCause::kWallLimit;
  } else {
    report.sim_minutes = result.sim_minutes;
    report.status = TaskStatus::kOk;
    report.cause = FailureCause::kNone;
    report.fitness = result.fitness;
  }
}

DaskCluster::DaskCluster(const ClusterSpec& cluster, const FarmConfig& config)
    : cluster_(cluster), config_(config), rng_(config.seed),
      pool_(std::max<std::size_t>(config.real_threads, 1)),
      live_workers_(config.job.nodes),
      tasks_run_on_node_(config.job.nodes, 0) {
  if (config.job.nodes == 0) throw util::ValueError("job needs at least one node");
  if (config.job.nodes > cluster.total_nodes) {
    throw util::ValueError("job requests more nodes than the cluster has");
  }
}

double DaskCluster::remaining_minutes() const {
  return std::max(0.0, config_.job.wall_limit_minutes - clock_minutes_);
}

FarmSnapshot DaskCluster::snapshot() const {
  FarmSnapshot snap;
  snap.clock_minutes = clock_minutes_;
  snap.live_workers = live_workers_;
  snap.tasks_run_on_node = tasks_run_on_node_;
  snap.rng = rng_.save_state();
  snap.batches_run = batches_run_;
  snap.stream_active = stream_active_;
  snap.stream_now = stream_now_;
  snap.stream_batch = stream_batch_;
  snap.stream_node_failures = stream_node_failures_;
  snap.stream_scheduler_restarts = stream_scheduler_restarts_;
  snap.stream_free_at = stream_free_at_;
  snap.stream_in_flight = stream_in_flight_;
  snap.stream_delivered = stream_delivered_;
  return snap;
}

void DaskCluster::restore(const FarmSnapshot& snapshot) {
  // Validate the snapshot's shape against this farm's configuration before
  // touching any state: resuming from a checkpoint taken on a differently
  // sized cluster would otherwise index out of the node-health map mid-run.
  const std::size_t nodes = tasks_run_on_node_.size();
  if (snapshot.tasks_run_on_node.size() != nodes) {
    throw util::ValueError(
        "farm snapshot node count mismatch: snapshot holds " +
        std::to_string(snapshot.tasks_run_on_node.size()) +
        " nodes, this farm is configured for " + std::to_string(nodes));
  }
  if (snapshot.live_workers > nodes) {
    throw util::ValueError("farm snapshot reports " +
                           std::to_string(snapshot.live_workers) +
                           " live workers on a " + std::to_string(nodes) +
                           "-node farm");
  }
  if (snapshot.stream_active && snapshot.stream_free_at.size() != nodes) {
    throw util::ValueError(
        "farm snapshot stream_free_at size mismatch: snapshot holds " +
        std::to_string(snapshot.stream_free_at.size()) +
        " entries, this farm is configured for " + std::to_string(nodes) +
        " nodes");
  }
  for (const InFlightTask& task : snapshot.stream_in_flight) {
    if (task.report.node >= nodes) {
      throw util::ValueError(
          "farm snapshot in-flight task " + std::to_string(task.id) +
          " ran on node " + std::to_string(task.report.node) +
          ", beyond this farm's " + std::to_string(nodes) + " nodes");
    }
  }
  clock_minutes_ = snapshot.clock_minutes;
  live_workers_ = snapshot.live_workers;
  tasks_run_on_node_ = snapshot.tasks_run_on_node;
  rng_.restore_state(snapshot.rng);
  batches_run_ = snapshot.batches_run;
  stream_active_ = snapshot.stream_active;
  stream_now_ = snapshot.stream_now;
  stream_batch_ = snapshot.stream_batch;
  stream_node_failures_ = snapshot.stream_node_failures;
  stream_scheduler_restarts_ = snapshot.stream_scheduler_restarts;
  stream_free_at_ = snapshot.stream_free_at;
  stream_in_flight_ = snapshot.stream_in_flight;
  stream_delivered_ = snapshot.stream_delivered;
}

BatchReport DaskCluster::run_batch(std::size_t num_tasks, const WorkFn& work,
                                   const std::vector<std::uint64_t>& eval_seeds) {
  if (!eval_seeds.empty() && eval_seeds.size() != num_tasks) {
    throw util::ValueError("run_batch: eval_seeds must be empty or one per task");
  }
  const std::size_t batch = batches_run_++;
  BatchReport report;
  report.tasks.resize(num_tasks);
  if (num_tasks == 0) {
    report.workers_remaining = live_workers_;
    return report;
  }
  if (live_workers_ == 0) throw util::ValueError("no live workers remain");

  // 1. Execute the real payloads in parallel: the CPU work is independent of
  //    the simulated timeline.
  std::vector<WorkResult> results(num_tasks);
  pool_.parallel_for(num_tasks, [&](std::size_t i) { results[i] = work(i); });

  // 1b. Scripted payload-level faults (stragglers, corruption) and scheduler
  //     outages for this batch; kills are looked up attempt by attempt below.
  for (std::size_t task = 0; task < num_tasks; ++task) {
    apply_payload_faults(config_.faults, batch, task, results[task]);
  }
  double scheduler_delay = 0.0;
  for (const FaultEvent& event : config_.faults.events) {
    if (event.batch != batch || event.kind != FaultKind::kSchedulerRestart) {
      continue;
    }
    scheduler_delay = std::max(scheduler_delay, event.delay_minutes);
    ++report.scheduler_restarts;
    util::log_info() << "taskfarm: scheduler restart at batch " << batch
                     << ", workers idle for " << event.delay_minutes << " min";
  }

  // 2. Discrete-event replay onto the simulated workers.
  struct WorkerSlot {
    double free_at = 0.0;
    std::size_t node = 0;
    bool operator>(const WorkerSlot& other) const { return free_at > other.free_at; }
  };
  std::priority_queue<WorkerSlot, std::vector<WorkerSlot>, std::greater<>> workers;
  std::size_t live = 0;
  for (std::size_t node = 0; node < tasks_run_on_node_.size(); ++node) {
    if (tasks_run_on_node_[node] == static_cast<std::size_t>(-1)) continue;  // dead
    workers.push(WorkerSlot{scheduler_delay, node});
    ++live;
  }

  std::queue<std::pair<std::size_t, std::size_t>> pending;  // task, attempt
  for (std::size_t i = 0; i < num_tasks; ++i) pending.emplace(i, 1);

  double makespan = scheduler_delay;
  while (!pending.empty()) {
    if (workers.empty()) {
      // Every node died; remaining tasks are unrecoverable.
      while (!pending.empty()) {
        TaskReport& tr = report.tasks[pending.front().first];
        tr.status = TaskStatus::kNodeFailure;
        tr.cause = FailureCause::kNodeLoss;
        tr.attempts = pending.front().second;
        tr.payload_attempts = results[pending.front().first].attempts;
        pending.pop();
      }
      break;
    }
    auto [task, attempt] = pending.front();
    pending.pop();
    WorkerSlot slot = workers.top();
    workers.pop();

    TaskReport& tr = report.tasks[task];
    tr.attempts = attempt;
    tr.payload_attempts = results[task].attempts;
    tr.node = slot.node;
    const WorkResult& result = results[task];

    // Node-failure injection (nannies disabled: the node never comes back):
    // either scripted by the fault plan or drawn from the random model.
    const bool killed = scripted_kill(config_.faults, batch, task, attempt);
    if (killed || rng_.bernoulli(config_.node_failure_probability)) {
      const double run_cap = std::min(result.sim_minutes, config_.task_timeout_minutes);
      const double elapsed = kill_elapsed_minutes(
          killed, run_cap, eval_seeds.empty() ? 0 : eval_seeds[task], task,
          attempt);
      makespan = std::max(makespan, slot.free_at + elapsed);
      tasks_run_on_node_[slot.node] = static_cast<std::size_t>(-1);
      --live;
      ++report.node_failures;
      util::log_info() << "taskfarm: node " << slot.node << " died; reassigning task "
                       << task;
      if (attempt < config_.max_attempts) {
        pending.emplace(task, attempt + 1);
      } else {
        tr.status = TaskStatus::kNodeFailure;
        tr.cause = FailureCause::kNodeLoss;
        tr.finish_minute = clock_minutes_ + slot.free_at + elapsed;
      }
      continue;
    }

    // The MPI-relaunch rule: workers resident on compute nodes cannot start a
    // second MPI_init-based training (section 2.2.5).
    const bool mpi_blocked = config_.job.placement == WorkerPlacement::kComputeNode &&
                             tasks_run_on_node_[slot.node] > 0;
    classify_attempt(result, mpi_blocked, config_.task_timeout_minutes, tr);
    slot.free_at += tr.sim_minutes;
    tr.finish_minute = clock_minutes_ + slot.free_at;
    ++tasks_run_on_node_[slot.node];
    makespan = std::max(makespan, slot.free_at);
    workers.push(slot);
  }

  live_workers_ = live;
  report.workers_remaining = live;
  report.makespan_minutes = makespan;
  clock_minutes_ += makespan;
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    record_task_metrics(i, report.tasks[i]);
  }
  record_batch_metrics(report, tasks_run_on_node_.size());
  return report;
}

void DaskCluster::stream_begin() {
  if (stream_active_) throw util::ValueError("stream session already active");
  if (live_workers_ == 0) throw util::ValueError("no live workers remain");
  stream_active_ = true;
  stream_batch_ = batches_run_++;
  stream_now_ = 0.0;
  stream_node_failures_ = 0;
  stream_scheduler_restarts_ = 0;
  stream_in_flight_.clear();
  stream_delivered_.clear();

  double scheduler_delay = 0.0;
  for (const FaultEvent& event : config_.faults.events) {
    if (event.batch != stream_batch_ ||
        event.kind != FaultKind::kSchedulerRestart) {
      continue;
    }
    scheduler_delay = std::max(scheduler_delay, event.delay_minutes);
    ++stream_scheduler_restarts_;
    util::log_info() << "taskfarm: scheduler restart at batch " << stream_batch_
                     << ", workers idle for " << event.delay_minutes << " min";
  }
  stream_free_at_.assign(tasks_run_on_node_.size(), scheduler_delay);
}

void DaskCluster::stream_submit(std::size_t id, WorkResult result,
                                std::uint64_t eval_seed) {
  if (!stream_active_) throw util::ValueError("no stream session active");

  // Payload-level scripted faults, keyed (session batch, task id) exactly as
  // run_batch keys (batch, task index).
  apply_payload_faults(config_.faults, stream_batch_, id, result);

  InFlightTask entry;
  entry.id = id;
  TaskReport& tr = entry.report;
  // Causality: the scheduler only submits once it has seen the completion
  // that freed a slot, so no attempt starts before the session clock.
  double ready_at = stream_now_;
  for (std::size_t attempt = 1;; ++attempt) {
    tr.attempts = attempt;
    tr.payload_attempts = result.attempts;
    // Earliest-free live node, ties broken by the lowest index.
    constexpr auto kNoNode = static_cast<std::size_t>(-1);
    std::size_t node = kNoNode;
    for (std::size_t n = 0; n < tasks_run_on_node_.size(); ++n) {
      if (tasks_run_on_node_[n] == kNoNode) continue;  // dead
      if (node == kNoNode || stream_free_at_[n] < stream_free_at_[node]) node = n;
    }
    if (node == kNoNode) {
      // Every node died; the task is unrecoverable.
      tr.status = TaskStatus::kNodeFailure;
      tr.cause = FailureCause::kNodeLoss;
      entry.finish_at = ready_at;
      break;
    }
    tr.node = node;
    const double start = std::max(stream_free_at_[node], ready_at);

    // Node-failure injection (nannies disabled: the node never comes back).
    const bool killed = scripted_kill(config_.faults, stream_batch_, id, attempt);
    if (killed || rng_.bernoulli(config_.node_failure_probability)) {
      const double run_cap =
          std::min(result.sim_minutes, config_.task_timeout_minutes);
      const double elapsed =
          kill_elapsed_minutes(killed, run_cap, eval_seed, id, attempt);
      tasks_run_on_node_[node] = kNoNode;
      --live_workers_;
      ++stream_node_failures_;
      util::log_info() << "taskfarm: node " << node << " died; reassigning task "
                       << id;
      ready_at = start + elapsed;  // the retry waits for the failure signal
      if (attempt < config_.max_attempts) continue;
      tr.status = TaskStatus::kNodeFailure;
      tr.cause = FailureCause::kNodeLoss;
      entry.finish_at = ready_at;
      break;
    }

    // The MPI-relaunch rule: workers resident on compute nodes cannot start
    // a second MPI_init-based training (section 2.2.5).
    const bool mpi_blocked =
        config_.job.placement == WorkerPlacement::kComputeNode &&
        tasks_run_on_node_[node] > 0;
    classify_attempt(result, mpi_blocked, config_.task_timeout_minutes, tr);
    ++tasks_run_on_node_[node];
    stream_free_at_[node] = start + tr.sim_minutes;
    entry.finish_at = start + tr.sim_minutes;
    break;
  }
  tr.finish_minute = clock_minutes_ + entry.finish_at;
  stream_in_flight_.push_back(entry);
  record_task_metrics(id, tr);
  obs::metrics()
      .gauge("farm.queue_depth")
      .set(static_cast<double>(stream_in_flight_.size()));
}

namespace {

/// Index of the earliest-finishing in-flight task (ties broken by id).
std::size_t earliest_in_flight(const std::vector<InFlightTask>& in_flight) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < in_flight.size(); ++i) {
    const InFlightTask& a = in_flight[i];
    const InFlightTask& b = in_flight[best];
    if (a.finish_at < b.finish_at ||
        (a.finish_at == b.finish_at && a.id < b.id)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

std::optional<StreamCompletion> DaskCluster::stream_next() {
  if (!stream_active_) throw util::ValueError("no stream session active");
  if (stream_in_flight_.empty()) return std::nullopt;
  const std::size_t best = earliest_in_flight(stream_in_flight_);
  const InFlightTask task = stream_in_flight_[best];
  stream_in_flight_.erase(stream_in_flight_.begin() +
                          static_cast<std::ptrdiff_t>(best));
  stream_now_ = std::max(stream_now_, task.finish_at);
  const StreamCompletion done{task.id, task.report};
  stream_delivered_.push_back(done);
  obs::metrics()
      .gauge("farm.queue_depth")
      .set(static_cast<double>(stream_in_flight_.size()));
  return done;
}

std::optional<StreamCompletion> DaskCluster::stream_try_next(std::size_t lo,
                                                             std::size_t hi) {
  if (!stream_active_) throw util::ValueError("no stream session active");
  if (stream_in_flight_.empty()) return std::nullopt;
  // Only the globally earliest finisher may be delivered: delivering a later
  // task out of turn would rewind stream_now for whichever tenant owns the
  // earlier one.  When it belongs to another range the caller tries again
  // after that tenant (or the mux, for a closed tenant) has pulled it.
  const std::size_t best = earliest_in_flight(stream_in_flight_);
  if (stream_in_flight_[best].id < lo || stream_in_flight_[best].id >= hi) {
    return std::nullopt;
  }
  const InFlightTask task = stream_in_flight_[best];
  stream_in_flight_.erase(stream_in_flight_.begin() +
                          static_cast<std::ptrdiff_t>(best));
  stream_now_ = std::max(stream_now_, task.finish_at);
  const StreamCompletion done{task.id, task.report};
  stream_delivered_.push_back(done);
  obs::metrics()
      .gauge("farm.queue_depth")
      .set(static_cast<double>(stream_in_flight_.size()));
  return done;
}

BatchReport DaskCluster::stream_end() {
  if (!stream_active_) throw util::ValueError("no stream session active");
  if (!stream_in_flight_.empty()) {
    throw util::ValueError("stream session still has in-flight tasks");
  }
  BatchReport report;
  std::size_t num_tasks = 0;
  for (const StreamCompletion& done : stream_delivered_) {
    num_tasks = std::max(num_tasks, done.id + 1);
  }
  report.tasks.resize(num_tasks);
  for (const StreamCompletion& done : stream_delivered_) {
    report.tasks[done.id] = done.report;
  }
  report.makespan_minutes = stream_now_;
  report.node_failures = stream_node_failures_;
  report.workers_remaining = live_workers_;
  report.scheduler_restarts = stream_scheduler_restarts_;
  clock_minutes_ += stream_now_;
  stream_active_ = false;
  stream_free_at_.clear();
  stream_delivered_.clear();
  record_batch_metrics(report, tasks_run_on_node_.size());
  return report;
}

}  // namespace dpho::hpc
