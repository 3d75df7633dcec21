#include "sched/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "core/deepmd_repr.hpp"
#include "core/experiment.hpp"
#include "hpc/cluster_factory.hpp"
#include "hpc/net/wire.hpp"
#include "obs/metrics.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

namespace dpho::sched {

namespace {

/// One event into both the run's own timeline and the process-wide sink.
void emit_run_event(obs::EventSink& timeline, std::string_view kind,
                    const util::JsonObject& fields) {
  timeline.emit(kind, fields);
  obs::events().emit(kind, fields);
}

util::JsonObject run_fields(const std::string& name) {
  util::JsonObject fields;
  fields["run"] = name;
  return fields;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions options, const core::Evaluator& evaluator)
    : options_(std::move(options)), evaluator_(evaluator) {
  if (options_.state_dir.empty()) {
    throw util::ValueError("sched: state_dir is required");
  }
  if (options_.max_runs == 0) {
    throw util::ValueError("sched: max_runs must be positive");
  }
  if (options_.pool_workers == 0) {
    throw util::ValueError("sched: pool_workers must be positive");
  }
  std::filesystem::create_directories(options_.state_dir / "runs");
  hpc::FarmConfig farm = options_.farm;
  farm.job.nodes = options_.pool_workers;
  shared_ = hpc::make_cluster_session(options_.cluster, farm,
                                      options_.backend);
  mux_ = std::make_unique<hpc::TaskMux>(*shared_);
  refresh_gauges();
}

Scheduler::~Scheduler() = default;

std::filesystem::path Scheduler::run_dir(const std::string& name) const {
  return options_.state_dir / "runs" / name;
}

RunStatus Scheduler::submit(const RunSpec& spec) {
  validate_run_spec(spec);
  if (runs_.count(spec.name) != 0) {
    throw SchedError(ErrorCode::kDuplicateRun,
                     "run \"" + spec.name + "\" already exists");
  }
  if (active_runs() >= options_.max_runs) {
    throw SchedError(ErrorCode::kTooManyRuns,
                     "active-run cap (" + std::to_string(options_.max_runs) +
                         ") reached");
  }

  auto state = std::make_unique<RunState>();
  state->spec = spec;
  state->order = next_order_++;
  state->dir = run_dir(spec.name);
  std::filesystem::create_directories(state->dir / "checkpoints");
  util::Json submission;
  submission["order"] = state->order;
  submission["spec"] = run_spec_to_json(spec);
  util::atomic_write_file(state->dir / "spec.json", submission.dump() + "\n");
  state->timeline.open(state->dir / "timeline.jsonl");

  RunState& ref = *state;
  runs_.emplace(spec.name, std::move(state));
  order_.push_back(spec.name);
  try {
    start_run(ref, /*resume=*/false);
  } catch (const std::exception& e) {
    fail_run(ref, e.what());
    refresh_gauges();
    throw SchedError(ErrorCode::kInternal,
                     "run \"" + spec.name + "\" failed to start: " + e.what());
  }

  obs::metrics().counter("sched.runs_submitted_total").add(1);
  util::JsonObject fields = run_fields(spec.name);
  fields["seed"] = hpc::net::encode_u64(spec.seed);
  fields["budget"] = ref.run->budget;
  fields["slot"] = ref.slot;
  emit_run_event(ref.timeline, "sched.run_submit", fields);
  refresh_gauges();
  return snapshot_status(ref);
}

void Scheduler::start_run(RunState& state, bool resume) {
  core::EngineConfig config;
  config.mode = core::ScheduleMode::kSteadyState;
  config.population_size = state.spec.population_size;
  config.num_workers = state.spec.num_workers;
  config.total_evaluations = state.spec.total_evaluations;
  config.cluster = options_.cluster;
  config.farm = options_.farm;
  config.farm.job.nodes = state.spec.num_workers;
  config.include_runtime_objective = state.spec.include_runtime_objective;
  config.checkpoint_dir = state.dir / "checkpoints";
  config.checkpoint_every = state.spec.checkpoint_every;
  config.resume = resume;
  config.session_factory = [this, &state](const hpc::ClusterSpec&,
                                          const hpc::FarmConfig&)
      -> std::unique_ptr<hpc::ClusterSession> {
    hpc::SlotOptions slot_options;
    slot_options.weight = state.spec.weight;
    slot_options.max_in_flight = state.spec.max_in_flight != 0
                                     ? state.spec.max_in_flight
                                     : state.spec.num_workers;
    auto session = std::make_unique<hpc::MuxSession>(*mux_, slot_options);
    state.slot = session->slot();
    return session;
  };
  state.config = std::move(config);
  state.layout = core::DeepMDRepresentation().representation();
  state.run = std::make_unique<core::EngineRun>(state.config, evaluator_,
                                                state.layout, state.spec.seed);
  state.loop =
      std::make_unique<core::SteadyStateLoop>(*state.run, state.variation);
  state.loop->start();
}

RunStatus Scheduler::snapshot_status(const RunState& state) const {
  if (state.phase != RunPhase::kActive || !state.loop) {
    return state.last_status;
  }
  RunStatus status;
  status.name = state.spec.name;
  status.phase = state.phase;
  status.seed = state.spec.seed;
  status.completions = state.loop->completions();
  status.births = state.loop->births();
  status.budget = state.run->budget;
  status.queued = mux_->slot_queued(state.slot);
  status.outstanding = mux_->slot_outstanding(state.slot);
  status.now_minutes = mux_->slot_now(state.slot);
  status.error = state.error;
  return status;
}

RunStatus Scheduler::status(const std::string& name) const {
  return snapshot_status(find(name));
}

std::vector<RunStatus> Scheduler::list() const {
  std::vector<RunStatus> statuses;
  statuses.reserve(order_.size());
  for (const std::string& name : order_) {
    statuses.push_back(snapshot_status(find(name)));
  }
  return statuses;
}

RunStatus Scheduler::cancel(const std::string& name) {
  RunState& state = find(name);
  if (state.phase != RunPhase::kActive) {
    throw SchedError(ErrorCode::kBadRequest,
                     "run \"" + name + "\" is not active (" +
                         to_string(state.phase) + ")");
  }
  state.last_status = snapshot_status(state);
  state.last_status.phase = RunPhase::kCancelled;
  state.phase = RunPhase::kCancelled;
  // Destroying the engine run closes the mux slot: queued tasks drop, still-
  // outstanding ones drain into the void without touching other tenants.
  state.loop.reset();
  state.run.reset();
  write_terminal(state, "cancelled.json");
  obs::metrics().counter("sched.runs_cancelled_total").add(1);
  emit_run_event(state.timeline, "sched.run_cancel", run_fields(name));
  state.timeline.close();
  refresh_gauges();
  return state.last_status;
}

util::Json Scheduler::result(const std::string& name) const {
  const RunState& state = find(name);
  if (state.phase != RunPhase::kDone) {
    throw SchedError(ErrorCode::kNotFinished,
                     "run \"" + name + "\" is " + to_string(state.phase));
  }
  return util::Json::parse(util::read_file(state.dir / "result.json"));
}

void Scheduler::step(double wait_seconds) {
  mux_->pump(wait_seconds);
  for (const std::string& name : order_) {
    RunState& state = *runs_.at(name);
    if (state.phase != RunPhase::kActive) continue;
    try {
      while (!state.loop->done()) {
        std::optional<hpc::StreamCompletion> done = mux_->try_take(state.slot);
        if (!done) break;
        state.loop->handle(*done);
        obs::metrics().counter("sched.completions_total").add(1);
        state.timeline.emit(
            "sched.completion",
            {{"run", util::Json(name)}, {"id", util::Json(done->id)},
             {"completions", util::Json(state.loop->completions())}});
      }
      if (state.loop->done()) finish_run(state);
    } catch (const std::exception& e) {
      fail_run(state, e.what());
    }
  }
  refresh_gauges();
}

void Scheduler::finish_run(RunState& state) {
  state.loop->finish();
  if (state.loop->halted()) {
    // halt_after_evaluations is a test knob of the solo drivers; scheduler
    // runs never set it, but keep the contract: a halted loop stays resumable.
    state.last_status = snapshot_status(state);
    return;
  }
  std::vector<core::RunRecord> runs;
  runs.push_back(std::move(state.run->record));
  core::save_runs(runs, state.dir / "result.json");
  state.last_status = snapshot_status(state);
  state.last_status.phase = RunPhase::kDone;
  state.phase = RunPhase::kDone;
  obs::metrics()
      .gauge("sched.run." + state.spec.name + ".busy_fraction")
      .set(runs.front().busy_fraction);
  state.loop.reset();
  state.run.reset();
  write_terminal(state, nullptr);
  obs::metrics().counter("sched.runs_completed_total").add(1);
  util::JsonObject fields = run_fields(state.spec.name);
  fields["completions"] = state.last_status.completions;
  fields["job_minutes"] = runs.front().job_minutes;
  emit_run_event(state.timeline, "sched.run_done", fields);
  state.timeline.close();
}

void Scheduler::fail_run(RunState& state, const std::string& what) {
  util::log_warn() << "sched: run " << state.spec.name << " failed: " << what;
  state.error = what;
  state.last_status = snapshot_status(state);
  state.last_status.phase = RunPhase::kFailed;
  state.last_status.error = what;
  state.phase = RunPhase::kFailed;
  state.loop.reset();
  state.run.reset();
  write_terminal(state, "failed.json");
  obs::metrics().counter("sched.runs_failed_total").add(1);
  util::JsonObject fields = run_fields(state.spec.name);
  fields["error"] = what;
  emit_run_event(state.timeline, "sched.run_fail", fields);
  state.timeline.close();
}

void Scheduler::write_terminal(RunState& state, const char* marker) {
  util::atomic_write_file(state.dir / "status.json",
                          run_status_to_json(state.last_status).dump() + "\n");
  if (marker != nullptr) {
    util::atomic_write_file(state.dir / marker, "{}\n");
  }
}

std::size_t Scheduler::resume_all() {
  struct Found {
    std::size_t order;
    RunSpec spec;
    std::filesystem::path dir;
  };
  std::vector<Found> found;
  const std::filesystem::path root = options_.state_dir / "runs";
  if (std::filesystem::exists(root)) {
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      if (!entry.is_directory()) continue;
      const std::filesystem::path spec_path = entry.path() / "spec.json";
      if (!std::filesystem::exists(spec_path)) continue;
      const util::Json submission =
          util::Json::parse(util::read_file(spec_path));
      Found item;
      item.order = submission.uint_at("order");
      item.spec = run_spec_from_json(submission.at("spec"));
      item.dir = entry.path();
      found.push_back(std::move(item));
    }
  }
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.order < b.order; });

  std::size_t resumed = 0;
  for (Found& item : found) {
    if (runs_.count(item.spec.name) != 0) continue;
    auto state = std::make_unique<RunState>();
    state->spec = item.spec;
    state->order = item.order;
    state->dir = item.dir;
    next_order_ = std::max(next_order_, item.order + 1);
    RunState& ref = *state;
    runs_.emplace(item.spec.name, std::move(state));
    order_.push_back(item.spec.name);

    const bool done = std::filesystem::exists(item.dir / "result.json");
    const bool cancelled = std::filesystem::exists(item.dir / "cancelled.json");
    const bool failed = std::filesystem::exists(item.dir / "failed.json");
    if (done || cancelled || failed) {
      // Terminal: re-register so status/result keep answering and the name
      // stays taken, but nothing to step.
      ref.phase = done ? RunPhase::kDone
                       : (cancelled ? RunPhase::kCancelled : RunPhase::kFailed);
      ref.last_status =
          run_status_from_json(util::Json::parse(
              util::read_file(item.dir / "status.json")));
      continue;
    }

    ref.timeline.open(item.dir / "timeline.jsonl");
    try {
      start_run(ref, /*resume=*/true);
      ++resumed;
      util::JsonObject fields = run_fields(item.spec.name);
      fields["completions"] = ref.loop->completions();
      fields["slot"] = ref.slot;
      emit_run_event(ref.timeline, "sched.run_resume", fields);
    } catch (const std::exception& e) {
      fail_run(ref, e.what());
    }
  }
  refresh_gauges();
  return resumed;
}

std::size_t Scheduler::active_runs() const {
  std::size_t active = 0;
  for (const auto& [name, state] : runs_) {
    if (state->phase == RunPhase::kActive) ++active;
  }
  return active;
}

void Scheduler::refresh_gauges() {
  auto& registry = obs::metrics();
  registry.gauge("sched.runs_active").set(static_cast<double>(active_runs()));
  for (const auto& [name, state] : runs_) {
    if (state->phase != RunPhase::kActive) continue;
    registry.gauge("sched.run." + name + ".queue_depth")
        .set(static_cast<double>(mux_->slot_queued(state->slot) +
                                 mux_->slot_outstanding(state->slot)));
  }
}

Scheduler::RunState& Scheduler::find(const std::string& name) {
  const auto it = runs_.find(name);
  if (it == runs_.end()) {
    throw SchedError(ErrorCode::kUnknownRun, "unknown run \"" + name + "\"");
  }
  return *it->second;
}

const Scheduler::RunState& Scheduler::find(const std::string& name) const {
  const auto it = runs_.find(name);
  if (it == runs_.end()) {
    throw SchedError(ErrorCode::kUnknownRun, "unknown run \"" + name + "\"");
  }
  return *it->second;
}

}  // namespace dpho::sched
