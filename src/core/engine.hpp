// The event-driven evolution engine: one submit/complete loop for both of
// the repo's deployments.
//
// The paper's generational NSGA-II (section 2.2.3) and the asynchronous
// steady-state variant it motivates (Scott et al. [24]) share everything
// except *when* survivor selection happens and *how* sigma anneals, so one
// engine runs both, parameterized by
//
//   * a SchedulePolicy  -- generational barrier (run_batch per wave) vs.
//     steady-state replacement (stream_* session, no barrier), and
//   * a VariationPolicy -- per-generation sigma annealing (x0.85 after each
//     selection) vs. the per-birth equivalent (x0.85^(1/mu) after each
//     offspring).
//
// Both policies draw on the same services: deterministic per-evaluation
// seeding (derive_eval_seed), the DaskCluster fault/retry machinery,
// MAXINT record building, rank+crowding truncation, trace export and
// crash-safe checkpointing.  Every caller -- dpho_hpo, ExperimentRunner,
// the dpho_sched scheduler, the benches and examples -- builds one
// EngineConfig and calls EvolutionEngine(config, evaluator).run(seed).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "core/checkpoint.hpp"
#include "core/deepmd_repr.hpp"
#include "core/driver.hpp"
#include "core/evaluator.hpp"
#include "ea/context.hpp"
#include "ea/ops.hpp"
#include "hpc/cluster_factory.hpp"
#include "hpc/taskfarm.hpp"
#include "moo/nsga2.hpp"

namespace dpho::core {

/// Deterministic per-evaluation seed shared by both schedule modes: run seed
/// + wave index + genome identity, so an identical genome evaluated in the
/// same wave receives the identical seed whichever mode scheduled it.
/// (Steady-state mode tags birth b with wave b / population_size.)
std::uint64_t derive_eval_seed(std::uint64_t run_seed, int wave,
                               const std::vector<double>& genome);

/// Injection seam for shared-pool deployments: when set, EngineRun builds
/// its ClusterSession through this instead of make_cluster_session, letting
/// the dpho_sched scheduler hand each run a hpc::MuxSession slice of ONE
/// shared worker pool.  The factory's session must honor the full session
/// contract (ordered delivery, snapshot/restore) for the run to stay
/// byte-identical to its solo equivalent.
using SessionFactory = std::function<std::unique_ptr<hpc::ClusterSession>(
    const hpc::ClusterSpec&, const hpc::FarmConfig&)>;

/// The one run configuration, for both schedule modes and both cluster
/// backends (defaults = the paper's setup).
struct EngineConfig {
  ScheduleMode mode = ScheduleMode::kGenerational;
  std::size_t population_size = 100;  // mu == archive capacity
  /// Concurrent evaluations (nodes).  0 -> population_size.  Generational
  /// mode always allocates one node per population slot.
  std::size_t num_workers = 0;
  std::size_t generations = 6;        // generational waves beyond wave 0
  /// Steady-state evaluation budget.  0 -> (generations + 1) * population
  /// (the generational budget at equal settings).
  std::size_t total_evaluations = 0;
  double anneal_factor = 0.85;
  bool anneal_enabled = true;
  moo::SortBackend sort_backend = moo::SortBackend::kRankOrdinal;
  hpc::ClusterSpec cluster = hpc::ClusterSpec::summit();
  hpc::FarmConfig farm;               // job.nodes synced to the worker count
  /// Which ClusterSession backend evaluates the farm's tasks: the discrete-
  /// event simulation (default) or a pool of real dpho_worker subprocesses.
  hpc::ClusterBackendConfig cluster_backend;
  /// Overrides cluster_backend when set (see SessionFactory above).
  SessionFactory session_factory;
  /// Adds the simulated training runtime (minutes) as a third minimized
  /// objective -- the "optimization of time to solution" the paper notes its
  /// scheme also provides (section 1).
  bool include_runtime_objective = false;
  /// Genome layout override; empty -> the paper's 7-gene DeepMD
  /// representation.  Extensions (e.g. the NAS genome) supply their own; the
  /// evaluator must decode matching genomes.
  std::optional<ea::Representation> representation;
  /// When set, the full EA state is persisted atomically (every generation,
  /// or every checkpoint_every completions) so an interrupted run resumes.
  std::optional<std::filesystem::path> checkpoint_dir;
  /// Resume from the latest valid checkpoint in `checkpoint_dir` (no-op when
  /// it holds none); the resumed RunRecord is bit-identical to an
  /// uninterrupted run with the same seed and configuration.
  bool resume = false;
  /// Graceful preemption after this generation (generational) or this many
  /// completions (steady state), once its checkpoint is written.
  std::optional<std::size_t> halt_after_generation;
  std::optional<std::size_t> halt_after_evaluations;
  /// Steady state: completions between checkpoint writes (1 = every
  /// completion; checkpointing is off unless checkpoint_dir is set).
  std::size_t checkpoint_every = 1;
  std::optional<std::filesystem::path> trace_dir;
  /// Closed waves between `engine.metrics` timeline events carrying a
  /// deterministic metrics snapshot (both modes close a wave per mu
  /// completions).  0 disables periodic snapshots.
  std::size_t metrics_interval = 0;
};

class VariationPolicy;

/// Mutable state + shared services for one engine run.  SchedulePolicy
/// implementations drive this; everything an implementation would otherwise
/// duplicate (seeding, report application, record building, truncation,
/// checkpoints, traces) lives here.
struct EngineRun {
  EngineRun(const EngineConfig& config, const Evaluator& evaluator,
            const ea::Representation& genome_layout, std::uint64_t seed);

  const EngineConfig& config;
  const Evaluator& evaluator;
  const ea::Representation& genome_layout;
  std::uint64_t seed;
  std::size_t num_workers;       // resolved worker count
  std::size_t budget;            // resolved steady-state evaluation budget
  util::Rng rng;
  ea::Context context;
  std::vector<ea::Range> bounds;
  /// The cluster backend behind the session seam: SimClusterSession replays
  /// the discrete-event farm; ProcessCluster drives real worker subprocesses.
  std::unique_ptr<hpc::ClusterSession> farm;
  RunRecord record;
  std::optional<CheckpointManager> checkpoints;

  /// The wire-form of one evaluation: id, genome, deterministic per-eval
  /// seed (derive_eval_seed), and the individual's UUID.
  hpc::TaskSpec make_spec(std::size_t id, const ea::Individual& individual,
                          int wave) const;

  /// The local evaluation closure handed to the cluster session: rebuilds an
  /// Individual from a TaskSpec (evaluators read only genome + uuid) and runs
  /// the configured evaluator with the spec's seed.  The sim backend calls it
  /// inline; the process backend uses it for zero-worker degradation.
  hpc::RemoteWorkFn local_work() const;

  /// Applies a resolved task report: status, runtime, attempts (scheduler
  /// reassignments + payload retries), failure cause, and fitness (MAXINT on
  /// failure, optional runtime objective on success).
  void apply_report(ea::Individual& individual,
                    const hpc::TaskReport& task) const;

  static EvalRecord to_record(const ea::Individual& individual, int generation);

  /// Barrier evaluation of one generational wave (run_batch + trace export).
  GenerationRecord evaluate_generation(std::vector<ea::Individual*>& individuals,
                                       int generation);

  /// Ranks `pool` (rank + crowding under config.sort_backend) and truncates
  /// to population_size -- the survivor step of both modes.
  ea::Population truncate(ea::Population pool) const;

  /// Writes trace-<label>.csv and gantt-<label>.txt when trace_dir is set.
  void export_trace(const hpc::BatchReport& report, const std::string& label) const;

  /// Records a closed wave into the run-wide observability layer: counters
  /// (waves/evaluations/failures), the engine.wave timeline event, and --
  /// every config.metrics_interval waves -- an engine.metrics event carrying
  /// the deterministic metrics snapshot.
  void record_wave_metrics(const GenerationRecord& wave);

  /// The resume point: when config.resume is set and the checkpoint
  /// directory holds a checkpoint, checks that it belongs to this seed and
  /// schedule mode, restores the state both modes share (RNG stream, sigma,
  /// closed waves) and returns it for the schedule's own fields.  nullopt
  /// means the run starts fresh.
  std::optional<DriverCheckpoint> resume_checkpoint();

  /// The checkpoint fields common to both modes; schedule policies add their
  /// own extras before saving.
  DriverCheckpoint base_checkpoint(std::size_t completed,
                                   const ea::Population& parents) const;

  /// Final-population records + job clock + busy fraction.  `extra_minutes`
  /// covers a still-open stream session on graceful preemption.
  void finalize(const ea::Population& parents, int generation_tag,
                double extra_minutes = 0.0);
};

/// When evaluations are scheduled and survivors selected.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual void run(EngineRun& run, VariationPolicy& variation) = 0;
};

/// How offspring are created and sigma annealed.  make_child is shared --
/// select-uniform, clone, Gaussian-mutate (Listing 1's variation pipeline) --
/// only the annealing hooks differ.
class VariationPolicy {
 public:
  virtual ~VariationPolicy() = default;

  /// One offspring: uniform parent selection, clone, bounded Gaussian
  /// mutation with the current sigma; birth_generation = `birth_tag`.
  ea::Individual make_child(EngineRun& run, const ea::Population& parents,
                            int birth_tag) const;

  virtual void after_birth(EngineRun& /*run*/) {}
  virtual void after_generation(EngineRun& /*run*/) {}
};

/// The paper's schedule: every wave is a barrier over population_size nodes.
/// One generation reproduces Listing 1:
///   offspring = pipe(parents, random_selection, clone,
///                    mutate_gaussian(std=context['std'], isotropic,
///                                    hard_bounds=representation.bounds),
///                    eval_pool(farm, size=len(parents)),
///                    rank_ordinal_sort(parents=parents),
///                    crowding_distance_calc,
///                    truncation_selection(size=len(parents),
///                                         key=(-rank, distance)))
/// after which context['std'] is multiplied by the annealing factor (0.85,
/// section 2.2.3; the 1/5 success rule is deliberately not used).
/// Evaluation failures receive MAXINT fitnesses (section 2.2.4).
class GenerationalSchedule : public SchedulePolicy {
 public:
  void run(EngineRun& run, VariationPolicy& variation) override;
};

/// Steady-state replacement: completions stream in; each frees a worker that
/// immediately receives a freshly bred offspring.
class SteadyStateSchedule : public SchedulePolicy {
 public:
  void run(EngineRun& run, VariationPolicy& variation) override;
};

/// The steady-state event loop, reentrant: start() seeds (or resumes) the
/// stream session, handle() applies exactly one completion, finish() closes
/// the run.  SteadyStateSchedule::run is the solo driver (pump stream_next
/// until dry); the dpho_sched scheduler interleaves N of these loops over one
/// shared pool, feeding each from its own mux slot -- same code path, so a
/// multiplexed run's archive matches its solo equivalent.
class SteadyStateLoop {
 public:
  SteadyStateLoop(EngineRun& run, VariationPolicy& variation);

  /// Loads the checkpoint (when configured and resume is set), re-submitting
  /// in-flight work the farm could not preserve; otherwise opens the stream
  /// and submits the initial wave (one random individual per worker).
  void start();

  /// One completion: survivor truncation, refill birth, wave close,
  /// checkpoint cadence, halt_after_evaluations preemption.
  void handle(const hpc::StreamCompletion& done);

  /// True once the loop should stop consuming completions: gracefully
  /// preempted, or nothing undelivered remains (budget exhausted).
  bool done() const;
  bool halted() const { return halted_; }
  std::size_t completions() const { return completions_; }
  std::size_t births() const { return births_; }

  /// Closes the session and finalizes run.record.  A halted loop leaves the
  /// stream open (the checkpoint is the resume point), exactly like the
  /// pre-refactor graceful-preemption path.
  void finish();

 private:
  void submit(ea::Individual individual);
  void save_checkpoint();

  EngineRun& run_;
  VariationPolicy& variation_;
  ea::Population archive_;
  std::map<std::size_t, ea::Individual> in_flight_;  // birth id -> offspring
  GenerationRecord wave_;     // the open wave (completions so far)
  std::size_t wave_index_ = 0;
  double wave_started_ = 0.0;
  std::size_t wave_node_failures_base_ = 0;
  std::size_t births_ = 0;
  std::size_t completions_ = 0;
  bool halted_ = false;
  bool finished_ = false;
};

/// Sigma x= anneal_factor after each survivor selection (section 2.2.3).
class GenerationalAnnealing : public VariationPolicy {
 public:
  void after_generation(EngineRun& run) override;
};

/// Sigma x= anneal_factor^(1/mu) after each birth, so the schedule matches
/// the generational one at equal budgets.
class PerBirthAnnealing : public VariationPolicy {
 public:
  void after_birth(EngineRun& run) override;
};

/// The engine: owns the config, validates it, resolves the policies from the
/// mode, and produces one RunRecord per run(seed).
class EvolutionEngine {
 public:
  EvolutionEngine(EngineConfig config, const Evaluator& evaluator);

  RunRecord run(std::uint64_t seed);

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
  const Evaluator& evaluator_;
  ea::Representation genome_layout_;
};

}  // namespace dpho::core
