#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/eval_adapter.hpp"
#include "hpc/trace.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

namespace dpho::core {

namespace {

ea::EvalStatus to_eval_status(hpc::TaskStatus status) {
  switch (status) {
    case hpc::TaskStatus::kOk: return ea::EvalStatus::kOk;
    case hpc::TaskStatus::kTimeout: return ea::EvalStatus::kTimeout;
    case hpc::TaskStatus::kTrainingError: return ea::EvalStatus::kTrainingError;
    case hpc::TaskStatus::kNodeFailure: return ea::EvalStatus::kNodeFailure;
  }
  throw util::ValueError("invalid task status");
}

/// Resolved worker count for a config (generational: one node per slot).
std::size_t resolve_workers(const EngineConfig& config) {
  if (config.mode == ScheduleMode::kGenerational) return config.population_size;
  return config.num_workers == 0 ? config.population_size : config.num_workers;
}

std::size_t resolve_budget(const EngineConfig& config) {
  if (config.total_evaluations != 0) return config.total_evaluations;
  return (config.generations + 1) * config.population_size;
}

hpc::FarmConfig farm_config_for(const EngineConfig& config, std::uint64_t seed) {
  hpc::FarmConfig farm = config.farm;
  farm.job.nodes = resolve_workers(config);
  farm.seed = util::hash_combine(seed, 0xFA53);
  return farm;
}

std::unique_ptr<hpc::ClusterSession> make_session(const EngineConfig& config,
                                                  std::uint64_t seed) {
  if (config.session_factory) {
    return config.session_factory(config.cluster,
                                  farm_config_for(config, seed));
  }
  return hpc::make_cluster_session(config.cluster,
                                   farm_config_for(config, seed),
                                   config.cluster_backend);
}

}  // namespace

std::uint64_t derive_eval_seed(std::uint64_t run_seed, int wave,
                               const std::vector<double>& genome) {
  std::uint64_t eval_seed = util::hash_combine(run_seed, util::hash_mix(wave));
  for (double gene : genome) {
    eval_seed = util::hash_combine(
        eval_seed, static_cast<std::uint64_t>(std::llround(gene * 1e9)));
  }
  return eval_seed;
}

EngineRun::EngineRun(const EngineConfig& engine_config,
                     const Evaluator& backend,
                     const ea::Representation& layout, std::uint64_t run_seed)
    : config(engine_config), evaluator(backend), genome_layout(layout),
      seed(run_seed), num_workers(resolve_workers(engine_config)),
      budget(resolve_budget(engine_config)), rng(run_seed),
      farm(make_session(engine_config, run_seed)) {
  context.mutation_std() = genome_layout.initial_stds();
  bounds = genome_layout.bounds();
  record.seed = seed;
  record.mode = config.mode;
  if (config.checkpoint_dir) checkpoints.emplace(*config.checkpoint_dir);
}

hpc::TaskSpec EngineRun::make_spec(std::size_t id,
                                   const ea::Individual& individual,
                                   int wave) const {
  hpc::TaskSpec spec;
  spec.id = id;
  spec.genome = individual.genome;
  spec.eval_seed = derive_eval_seed(seed, wave, individual.genome);
  spec.uuid = individual.uuid.str();
  return spec;
}

hpc::RemoteWorkFn EngineRun::local_work() const {
  return [this](const hpc::TaskSpec& spec) -> hpc::WorkResult {
    ea::Individual individual;
    individual.genome = spec.genome;
    individual.uuid = util::Uuid::parse(spec.uuid);
    // The adapter is the entire core->hpc surface of the evaluation path.
    return to_work_result(evaluator.evaluate(individual, spec.eval_seed));
  };
}

void EngineRun::apply_report(ea::Individual& individual,
                             const hpc::TaskReport& task) const {
  individual.status = to_eval_status(task.status);
  individual.eval_runtime_minutes = task.sim_minutes;
  // Scheduler reassignments plus evaluator-internal retries beyond the first.
  individual.eval_attempts = task.attempts + task.payload_attempts - 1;
  individual.failure_cause = hpc::to_string(task.cause);
  if (task.status == hpc::TaskStatus::kOk) {
    individual.fitness = task.fitness;
    if (config.include_runtime_objective) {
      individual.fitness.push_back(task.sim_minutes);
    }
  } else {
    // The paper's MAXINT convention: failed individuals sort last but keep
    // NSGA-II's ordering semantics intact (unlike NaN).
    individual.fitness.assign(config.include_runtime_objective ? 3 : 2,
                              ea::kFailureFitness);
  }
}

EvalRecord EngineRun::to_record(const ea::Individual& individual, int generation) {
  EvalRecord record;
  record.genome = individual.genome;
  record.fitness = individual.fitness;
  record.runtime_minutes = individual.eval_runtime_minutes;
  record.status = individual.status;
  record.attempts = individual.eval_attempts;
  record.failure_cause = individual.failure_cause;
  record.generation = generation;
  record.uuid = individual.uuid.str();
  return record;
}

GenerationRecord EngineRun::evaluate_generation(
    std::vector<ea::Individual*>& individuals, int generation) {
  std::vector<hpc::TaskSpec> specs;
  specs.reserve(individuals.size());
  for (std::size_t i = 0; i < individuals.size(); ++i) {
    specs.push_back(make_spec(i, *individuals[i], generation));
  }
  const hpc::BatchReport report = farm->run_batch(specs, local_work());
  export_trace(report, "gen-" + std::to_string(generation));

  GenerationRecord gen_record;
  gen_record.generation = generation;
  gen_record.makespan_minutes = report.makespan_minutes;
  gen_record.node_failures = report.node_failures;
  for (std::size_t i = 0; i < individuals.size(); ++i) {
    ea::Individual& individual = *individuals[i];
    apply_report(individual, report.tasks[i]);
    if (individual.status != ea::EvalStatus::kOk) ++gen_record.failures;
    gen_record.evaluated.push_back(to_record(individual, generation));
  }
  return gen_record;
}

ea::Population EngineRun::truncate(ea::Population pool) const {
  std::vector<moo::ObjectiveVector> objectives;
  objectives.reserve(pool.size());
  for (const ea::Individual& individual : pool) {
    objectives.push_back(individual.fitness);
  }
  const moo::RankAnnotation annotation =
      moo::assign_rank_and_crowding(objectives, config.sort_backend);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].rank = annotation.rank[i];
    pool[i].crowding_distance = annotation.crowding[i];
  }
  return ea::truncation_selection(config.population_size)(std::move(pool));
}

void EngineRun::export_trace(const hpc::BatchReport& report,
                             const std::string& label) const {
  if (!config.trace_dir) return;
  std::filesystem::create_directories(*config.trace_dir);
  util::write_file(*config.trace_dir / ("trace-" + label + ".csv"),
                   hpc::trace_csv(report));
  util::write_file(*config.trace_dir / ("gantt-" + label + ".txt"),
                   hpc::gantt_art(report) + "\n");
}

void EngineRun::record_wave_metrics(const GenerationRecord& wave) {
  auto& registry = obs::metrics();
  registry.counter("engine.waves_total").add(1);
  registry.counter("engine.evaluations_total")
      .add(static_cast<std::int64_t>(wave.evaluated.size()));
  registry.counter("engine.eval_failures_total")
      .add(static_cast<std::int64_t>(wave.failures));
  obs::events().emit(
      "engine.wave",
      {{"seed", static_cast<std::int64_t>(seed)},
       {"generation", static_cast<std::int64_t>(wave.generation)},
       {"evaluations", static_cast<std::int64_t>(wave.evaluated.size())},
       {"failures", static_cast<std::int64_t>(wave.failures)},
       {"node_failures", static_cast<std::int64_t>(wave.node_failures)},
       {"makespan_minutes", wave.makespan_minutes}});
  const std::int64_t waves = registry.counter("engine.waves_total").value();
  if (config.metrics_interval != 0 && obs::events().enabled() &&
      waves % static_cast<std::int64_t>(config.metrics_interval) == 0) {
    obs::events().emit("engine.metrics",
                       {{"waves", waves},
                        {"deterministic", registry.deterministic_json()}});
  }
}

std::optional<DriverCheckpoint> EngineRun::resume_checkpoint() {
  if (!config.resume || !checkpoints) return std::nullopt;
  std::optional<DriverCheckpoint> checkpoint = checkpoints->load();
  if (!checkpoint) return std::nullopt;
  if (checkpoint->seed != seed) {
    throw util::ValueError(
        "checkpoint seed mismatch: directory holds a run for seed " +
        std::to_string(checkpoint->seed));
  }
  if (checkpoint->mode != config.mode) {
    throw util::ValueError("checkpoint mode mismatch: directory holds a " +
                           to_string(checkpoint->mode) + " run");
  }
  rng.restore_state(checkpoint->rng);
  context.mutation_std() = checkpoint->mutation_std;
  record.generations = std::move(checkpoint->generations);
  return checkpoint;
}

DriverCheckpoint EngineRun::base_checkpoint(std::size_t completed,
                                            const ea::Population& parents) const {
  DriverCheckpoint checkpoint;
  checkpoint.seed = seed;
  checkpoint.mode = config.mode;
  checkpoint.completed_generations = completed;
  checkpoint.parents = parents;
  checkpoint.rng = rng.save_state();
  checkpoint.mutation_std = context.mutation_std();
  checkpoint.farm = farm->snapshot();
  checkpoint.generations = record.generations;
  return checkpoint;
}

void EngineRun::finalize(const ea::Population& parents, int generation_tag,
                         double extra_minutes) {
  for (const ea::Individual& individual : parents) {
    record.final_population.push_back(to_record(individual, generation_tag));
  }
  record.job_minutes = farm->clock_minutes() + extra_minutes;
  double busy_minutes = 0.0;
  for (const GenerationRecord& gen : record.generations) {
    for (const EvalRecord& eval : gen.evaluated) {
      busy_minutes += eval.runtime_minutes;
    }
  }
  record.busy_fraction =
      record.job_minutes > 0.0
          ? busy_minutes /
                (record.job_minutes * static_cast<double>(num_workers))
          : 0.0;
  auto& registry = obs::metrics();
  registry.gauge("engine.job_minutes").set(record.job_minutes);
  registry.gauge("engine.busy_fraction").set(record.busy_fraction);
  std::size_t evaluations = 0;
  for (const GenerationRecord& gen : record.generations) {
    evaluations += gen.evaluated.size();
  }
  obs::events().emit("engine.run_end",
                     {{"seed", static_cast<std::int64_t>(seed)},
                      {"evaluations", static_cast<std::int64_t>(evaluations)},
                      {"job_minutes", record.job_minutes},
                      {"busy_fraction", record.busy_fraction}});
}

ea::Individual VariationPolicy::make_child(EngineRun& run,
                                           const ea::Population& parents,
                                           int birth_tag) const {
  // Listing 1's variation pipeline: uniform selection, clone, bounded
  // Gaussian mutation.  The ops draw no RNG at construction, so building
  // them per child keeps the draw order of the original per-generation code.
  const ea::SourceOp source = ea::random_selection(parents, run.rng);
  const ea::StreamOp cloner = ea::clone_op(run.rng);
  const ea::StreamOp mutator = ea::mutate_gaussian(run.context, run.bounds, run.rng);
  ea::Individual child = mutator(cloner(source()));
  child.birth_generation = birth_tag;
  obs::metrics().counter("engine.births_total").add(1);
  obs::events().emit("engine.birth",
                     {{"seed", static_cast<std::int64_t>(run.seed)},
                      {"birth_tag", static_cast<std::int64_t>(birth_tag)},
                      {"uuid", child.uuid.str()}});
  return child;
}

void GenerationalAnnealing::after_generation(EngineRun& run) {
  if (run.config.anneal_enabled) {
    run.context.anneal_mutation_std(run.config.anneal_factor);
  }
}

void PerBirthAnnealing::after_birth(EngineRun& run) {
  if (!run.config.anneal_enabled) return;
  // Generational annealing multiplies sigma by the factor per mu births;
  // apply the equivalent per-birth factor so schedules match at equal
  // budgets.
  run.context.anneal_mutation_std(
      std::pow(run.config.anneal_factor,
               1.0 / static_cast<double>(run.config.population_size)));
}

void GenerationalSchedule::run(EngineRun& run, VariationPolicy& variation) {
  const EngineConfig& config = run.config;

  ea::Population parents;
  std::size_t first_offspring_gen = 1;
  bool resumed = false;
  if (std::optional<DriverCheckpoint> checkpoint = run.resume_checkpoint()) {
    if (checkpoint->parents.size() != config.population_size) {
      throw util::ValueError("checkpoint population size mismatch");
    }
    parents = std::move(checkpoint->parents);
    if (!run.farm->restore(checkpoint->farm).empty()) {
      // Generational checkpoints are only written at wave barriers, where
      // no task is in flight.
      throw util::ValueError(
          "generational checkpoint reports lost in-flight tasks");
    }
    first_offspring_gen = checkpoint->completed_generations + 1;
    resumed = true;
    util::log_info() << "driver: seed " << run.seed << " resumed after generation "
                     << checkpoint->completed_generations;
  }

  const auto save_checkpoint = [&](std::size_t completed) {
    if (!run.checkpoints) return;
    run.checkpoints->save(run.base_checkpoint(completed, parents));
  };

  if (!resumed) {
    // Generation 0: random initial population.
    parents.reserve(config.population_size);
    for (std::size_t i = 0; i < config.population_size; ++i) {
      parents.push_back(run.genome_layout.create_individual(run.rng, 0));
    }
    std::vector<ea::Individual*> pending;
    for (ea::Individual& individual : parents) pending.push_back(&individual);
    GenerationRecord gen0 = run.evaluate_generation(pending, 0);
    gen0.mutation_std = run.context.mutation_std();
    run.record_wave_metrics(gen0);
    run.record.generations.push_back(std::move(gen0));
    save_checkpoint(0);
    if (config.halt_after_generation && *config.halt_after_generation == 0) {
      run.finalize(parents, static_cast<int>(config.generations));
      return;
    }
  }

  for (std::size_t gen = first_offspring_gen; gen <= config.generations; ++gen) {
    // Listing 1: select, clone, mutate; then farm the evaluations.
    ea::Population offspring;
    offspring.reserve(config.population_size);
    for (std::size_t i = 0; i < config.population_size; ++i) {
      offspring.push_back(
          variation.make_child(run, parents, static_cast<int>(gen)));
    }
    std::vector<ea::Individual*> pending;
    for (ea::Individual& individual : offspring) pending.push_back(&individual);
    GenerationRecord gen_record =
        run.evaluate_generation(pending, static_cast<int>(gen));
    gen_record.mutation_std = run.context.mutation_std();

    // rank_ordinal_sort(parents=parents): rank the offspring together with
    // the current parents, then truncate the union back to mu.
    ea::Population pool = parents;
    pool.insert(pool.end(), offspring.begin(), offspring.end());
    parents = run.truncate(std::move(pool));

    variation.after_generation(run);
    run.record_wave_metrics(gen_record);
    run.record.generations.push_back(std::move(gen_record));
    util::log_info() << "driver: seed " << run.seed << " generation " << gen
                     << " makespan "
                     << run.record.generations.back().makespan_minutes << " min";
    save_checkpoint(gen);
    if (config.halt_after_generation && *config.halt_after_generation == gen) {
      // Graceful preemption: the checkpoint above is the resume point.
      run.finalize(parents, static_cast<int>(config.generations));
      return;
    }
  }

  run.finalize(parents, static_cast<int>(config.generations));
}

void SteadyStateSchedule::run(EngineRun& run, VariationPolicy& variation) {
  SteadyStateLoop loop(run, variation);
  loop.start();
  while (!loop.done()) {
    const std::optional<hpc::StreamCompletion> done = run.farm->stream_next();
    if (!done) break;
    loop.handle(*done);
  }
  loop.finish();
}

SteadyStateLoop::SteadyStateLoop(EngineRun& run, VariationPolicy& variation)
    : run_(run), variation_(variation) {}

// Submit one offspring: the payload is computed now (deterministic seed
// keyed on the birth's wave), the farm resolves faults/retries, and the
// completion surfaces at its simulated finish time.
void SteadyStateLoop::submit(ea::Individual individual) {
  const std::size_t id = births_;
  const int wave_of_birth =
      static_cast<int>(id / run_.config.population_size);
  run_.farm->stream_submit(run_.make_spec(id, individual, wave_of_birth),
                           run_.local_work());
  in_flight_.emplace(id, std::move(individual));
  ++births_;
}

void SteadyStateLoop::save_checkpoint() {
  if (!run_.checkpoints) return;
  DriverCheckpoint checkpoint = run_.base_checkpoint(completions_, archive_);
  checkpoint.births = births_;
  checkpoint.wave_started_minutes = wave_started_;
  checkpoint.wave_node_failures_base = wave_node_failures_base_;
  checkpoint.partial_wave = wave_;
  for (auto& [id, individual] : in_flight_) {
    checkpoint.in_flight.push_back(InFlightBirth{id, individual});
  }
  run_.checkpoints->save(checkpoint);
}

void SteadyStateLoop::start() {
  std::optional<DriverCheckpoint> checkpoint = run_.resume_checkpoint();
  if (!checkpoint) {
    run_.farm->stream_begin();
    // Initial wave: one random individual per worker.
    for (std::size_t worker = 0; worker < run_.num_workers; ++worker) {
      submit(run_.genome_layout.create_individual(run_.rng, 0));
    }
    return;
  }

  archive_ = std::move(checkpoint->parents);
  births_ = checkpoint->births;
  completions_ = checkpoint->completed_generations;
  wave_index_ = run_.record.generations.size();
  wave_started_ = checkpoint->wave_started_minutes;
  wave_node_failures_base_ = checkpoint->wave_node_failures_base;
  if (checkpoint->partial_wave) {
    wave_ = std::move(*checkpoint->partial_wave);
  }
  for (InFlightBirth& birth : checkpoint->in_flight) {
    in_flight_.emplace(birth.id, std::move(birth.individual));
  }
  // The farm snapshot carries the open stream session.  The sim backend
  // restores every in-flight report verbatim; the process backend cannot
  // preserve a real worker's half-finished evaluation, so it reports the
  // lost ids back and we re-submit them (same deterministic eval seed --
  // the re-run is fitness-identical to what the dead run would have
  // produced).
  const std::vector<std::size_t> lost = run_.farm->restore(checkpoint->farm);
  for (const std::size_t id : lost) {
    const auto it = in_flight_.find(id);
    if (it == in_flight_.end()) {
      throw util::ValueError(
          "restore reported lost task " + std::to_string(id) +
          " that the checkpoint does not hold in flight");
    }
    const int wave_of_birth =
        static_cast<int>(id / run_.config.population_size);
    run_.farm->stream_submit(run_.make_spec(id, it->second, wave_of_birth),
                             run_.local_work());
  }
  util::log_info() << "engine: seed " << run_.seed << " resumed after "
                   << completions_ << " completions (" << in_flight_.size()
                   << " in flight, " << lost.size() << " re-submitted)";
}

void SteadyStateLoop::handle(const hpc::StreamCompletion& done) {
  const EngineConfig& config = run_.config;
  const std::size_t mu = config.population_size;

  const auto it = in_flight_.find(done.id);
  if (it == in_flight_.end()) {
    throw util::ValueError("engine: completion for unknown task id " +
                           std::to_string(done.id));
  }
  ea::Individual individual = std::move(it->second);
  in_flight_.erase(it);
  run_.apply_report(individual, done.report);
  if (individual.status != ea::EvalStatus::kOk) ++wave_.failures;
  wave_.evaluated.push_back(
      EngineRun::to_record(individual, static_cast<int>(wave_index_)));
  ++completions_;

  // Steady-state survivor truncation over archive + newcomer.
  archive_.push_back(std::move(individual));
  if (archive_.size() > mu) archive_ = run_.truncate(std::move(archive_));

  // Refill the idle worker immediately (no barrier).
  if (births_ < run_.budget) {
    ea::Individual child =
        variation_.make_child(run_, archive_, static_cast<int>(births_));
    variation_.after_birth(run_);
    submit(std::move(child));
  }

  // Close the wave once mu completions landed (or the budget ran dry).
  if (wave_.evaluated.size() == mu || completions_ == run_.budget) {
    wave_.generation = static_cast<int>(wave_index_);
    wave_.makespan_minutes = run_.farm->stream_now() - wave_started_;
    wave_.node_failures =
        run_.farm->stream_node_failures() - wave_node_failures_base_;
    wave_.mutation_std = run_.context.mutation_std();
    run_.record_wave_metrics(wave_);
    run_.record.generations.push_back(std::move(wave_));
    wave_ = GenerationRecord{};
    ++wave_index_;
    wave_started_ = run_.farm->stream_now();
    wave_node_failures_base_ = run_.farm->stream_node_failures();
  }

  if (run_.checkpoints && config.checkpoint_every != 0 &&
      completions_ % config.checkpoint_every == 0) {
    save_checkpoint();
  }
  if (config.halt_after_evaluations &&
      completions_ == *config.halt_after_evaluations) {
    // Graceful preemption mid-wave: persist the event-loop state (the farm
    // snapshot carries the open stream session) and stop without closing
    // the session, exactly like a crash the checkpoint protects against.
    save_checkpoint();
    halted_ = true;
  }
}

bool SteadyStateLoop::done() const {
  return halted_ || run_.farm->stream_pending() == 0;
}

void SteadyStateLoop::finish() {
  if (finished_) throw util::ValueError("engine: loop already finished");
  finished_ = true;
  if (halted_) {
    run_.finalize(archive_, static_cast<int>(wave_index_),
                  run_.farm->stream_now());
    return;
  }
  const hpc::BatchReport report = run_.farm->stream_end();
  run_.export_trace(report, "stream");
  run_.finalize(archive_, static_cast<int>(wave_index_));
}

EvolutionEngine::EvolutionEngine(EngineConfig config, const Evaluator& evaluator)
    : config_(std::move(config)), evaluator_(evaluator),
      genome_layout_(config_.representation
                         ? *config_.representation
                         : DeepMDRepresentation().representation()) {
  if (config_.population_size == 0) {
    throw util::ValueError("engine: population must be positive");
  }
  if (config_.representation &&
      config_.cluster_backend.kind == hpc::ClusterBackendKind::kProcess) {
    // Workers decode genomes with the default DeepMD representation; a
    // custom layout would silently disagree with the scheduler's.
    throw util::ValueError(
        "engine: custom representations are not supported by the process "
        "cluster backend");
  }
  // population_size > 0 makes the resolved worker count positive too.
  if (config_.mode == ScheduleMode::kSteadyState &&
      resolve_budget(config_) < resolve_workers(config_)) {
    throw util::ValueError("engine: budget must cover the initial wave");
  }
}

RunRecord EvolutionEngine::run(std::uint64_t seed) {
  EngineRun state(config_, evaluator_, genome_layout_, seed);
  obs::events().emit(
      "engine.run_begin",
      {{"seed", static_cast<std::int64_t>(seed)},
       {"mode", to_string(config_.mode)},
       {"population", static_cast<std::int64_t>(config_.population_size)},
       {"workers", static_cast<std::int64_t>(state.num_workers)},
       {"budget", static_cast<std::int64_t>(state.budget)}});

  std::unique_ptr<SchedulePolicy> schedule;
  std::unique_ptr<VariationPolicy> variation;
  if (config_.mode == ScheduleMode::kGenerational) {
    schedule = std::make_unique<GenerationalSchedule>();
    variation = std::make_unique<GenerationalAnnealing>();
  } else {
    schedule = std::make_unique<SteadyStateSchedule>();
    variation = std::make_unique<PerBirthAnnealing>();
  }
  schedule->run(state, *variation);
  return std::move(state.record);
}

}  // namespace dpho::core
