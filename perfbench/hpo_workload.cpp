// hpo_process: steady-state NSGA-II through core::EvolutionEngine over a
// 2-worker hpc::ProcessCluster, every evaluation a real dp_train subprocess
// launched by core::SubprocessEvaluator on 160-atom reference frames.
#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/eval_config_io.hpp"
#include "core/evaluator.hpp"
#include "core/workspace.hpp"
#include "dp/fast_graph.hpp"
#include "dp/lcurve.hpp"
#include "dp/trainer.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "nn/simd.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dpho;

namespace {

constexpr std::size_t kPopulation = 6;
constexpr std::size_t kWorkers = 2;
// Budget = population + workers: every birth happens before the archive is
// first truncated, so the genome sequence (and with it which evaluations
// are rejections) does not depend on the trained fitnesses and can be
// predicted exactly from the EA seed.
constexpr std::size_t kBudget = kPopulation + kWorkers;
constexpr std::size_t kTrainSteps = 4;
constexpr std::size_t kReferenceFrames = 40;  // 30 train + 10 validation
constexpr std::size_t kSetupRepeats = 3;
// An accepted evaluation takes about ten seconds and a rejection about 40
// ms; see critical_path_units.
constexpr double kSecondsPerAcceptedUnit = 10.0;
constexpr double kRejectedUnits = 0.004;
// What an accepted training costs depends on its pair count (about rcut^3)
// and its activation functions, so accepted genomes must have rcut in this
// band and tanh (the DeePMD default) in both nets.
constexpr double kRcutBandLo = 8.0;
constexpr double kRcutBandHi = 8.4;

/// The paper's input.json template with a short step budget.
std::string input_template() {
  std::string text = core::default_input_template();
  const std::string from = "\"numb_steps\": 40000";
  const std::size_t at = text.find(from);
  if (at == std::string::npos) {
    throw util::ValueError("default input template has no numb_steps entry");
  }
  text.replace(at, from.size(), "\"numb_steps\": " + std::to_string(kTrainSteps));
  return text;
}

struct SessionLog {
  std::map<std::size_t, Clock::time_point> submitted;
  std::map<std::size_t, Clock::time_point> delivered;
  std::map<std::size_t, double> blocked_ms;  // traced only
  double engine_self_ms = 0.0;               // traced only
};

/// Benchmark-owned ClusterSession wrapper: forwards every call and records
/// submit and delivery times per task id.  Traced runs also record the time
/// each stream_next blocks and the engine's own time between a delivery
/// and its next call into the session.
class RecordingSession final : public hpc::ClusterSession {
 public:
  /// `log` must outlive the session (the engine destroys the session when
  /// its run ends).
  RecordingSession(std::unique_ptr<hpc::ClusterSession> inner, SessionLog& log,
                   bool traced)
      : inner_(std::move(inner)), log_(log), traced_(traced) {}

  hpc::BatchReport run_batch(const std::vector<hpc::TaskSpec>& specs,
                             const hpc::RemoteWorkFn& local_eval) override {
    enter();
    return inner_->run_batch(specs, local_eval);
  }
  void stream_begin() override {
    enter();
    inner_->stream_begin();
  }
  void stream_submit(const hpc::TaskSpec& spec,
                     const hpc::RemoteWorkFn& local_eval) override {
    enter();
    log_.submitted[spec.id] = Clock::now();
    inner_->stream_submit(spec, local_eval);
  }
  std::optional<hpc::StreamCompletion> stream_next() override {
    const Clock::time_point called = traced_ ? enter() : Clock::time_point{};
    std::optional<hpc::StreamCompletion> done = inner_->stream_next();
    const Clock::time_point returned = Clock::now();
    if (done) {
      log_.delivered[done->id] = returned;
      if (traced_) {
        log_.blocked_ms[done->id] = ms_between(called, returned);
        last_return_ = returned;
      }
    }
    return done;
  }
  hpc::BatchReport stream_end() override {
    enter();
    return inner_->stream_end();
  }
  bool stream_active() const override { return inner_->stream_active(); }
  std::size_t stream_pending() const override { return inner_->stream_pending(); }
  double stream_now() const override { return inner_->stream_now(); }
  std::size_t stream_node_failures() const override {
    return inner_->stream_node_failures();
  }
  double clock_minutes() const override { return inner_->clock_minutes(); }
  double remaining_minutes() const override { return inner_->remaining_minutes(); }
  std::size_t live_workers() const override { return inner_->live_workers(); }
  std::size_t batches_run() const override { return inner_->batches_run(); }
  hpc::FarmSnapshot snapshot() const override { return inner_->snapshot(); }
  std::vector<std::size_t> restore(const hpc::FarmSnapshot& snapshot) override {
    enter();
    return inner_->restore(snapshot);
  }
  std::string backend_name() const override { return inner_->backend_name(); }

 private:
  /// Closes the engine-self interval opened by the last delivery.
  Clock::time_point enter() {
    const Clock::time_point now = traced_ ? Clock::now() : Clock::time_point{};
    if (traced_ && last_return_) {
      log_.engine_self_ms += ms_between(*last_return_, now);
      last_return_.reset();
    }
    return now;
  }

  std::unique_ptr<hpc::ClusterSession> inner_;
  SessionLog& log_;
  bool traced_;
  std::optional<Clock::time_point> last_return_;
};

/// Stand-in evaluator for the vetting dry run: rejects exactly the genomes
/// dp_train rejects (rcut above half the box) and accepts the rest.
class RcutOnlyEvaluator final : public core::Evaluator {
 public:
  explicit RcutOnlyEvaluator(double half_box) : half_box_(half_box) {}
  core::EvalOutcome evaluate(const ea::Individual& individual,
                             std::uint64_t /*eval_seed*/) const override {
    const double rcut = individual.genome.at(core::DeepMDRepresentation::kRcut);
    if (rcut > half_box_) {
      return core::EvalOutcome::failure(core::FailureCause::kNonZeroExit, 1.0);
    }
    core::EvalOutcome outcome;
    outcome.fitness = {rcut, individual.genome.at(core::DeepMDRepresentation::kStartLr)};
    outcome.runtime_minutes = 1.0;
    return outcome;
  }

 private:
  double half_box_;
};

/// Campaign wall time in accepted-evaluation units under the closed loop the
/// process pool runs: two tasks in flight, task k + 2 is submitted when task
/// k is delivered, and delivery is in task-id order.
double critical_path_units(const std::vector<bool>& accepted) {
  std::vector<double> start(accepted.size(), 0.0);
  double delivered = 0.0;
  for (std::size_t k = 0; k < accepted.size(); ++k) {
    const double finish = start[k] + (accepted[k] ? 1.0 : kRejectedUnits);
    delivered = std::max(finish, delivered);
    if (k + kWorkers < accepted.size()) start[k + kWorkers] = delivered;
  }
  return delivered;
}

core::EngineConfig engine_config() {
  core::EngineConfig config;
  config.mode = core::ScheduleMode::kSteadyState;
  config.population_size = kPopulation;
  config.num_workers = kWorkers;
  config.total_evaluations = kBudget;
  config.cluster = hpc::ClusterSpec::testbed(kWorkers);
  return config;
}

struct VettedSeed {
  std::uint64_t ea_seed = 0;
  std::size_t candidates_tried = 0;
  std::vector<std::vector<double>> genomes;  // birth order
  std::vector<bool> accepted;
  double critical_units = 0.0;
};

/// Derives the EA seed from the workload seed: the first candidate whose
/// campaign has `target_units` accepted evaluations, all on the critical
/// path -- no two trainings overlap, so while one trains the other worker
/// serves rejections or idles behind in-order delivery (about 7% of EA
/// seeds at the default size; half of all seeds give all-rejected or
/// all-accepted campaigns).  Every run therefore does the same work: the
/// seed varies the hyperparameters, not how many trainings run or how they
/// line up on the two workers.  The accepted genomes must also have rcut in
/// [kRcutBandLo, kRcutBandHi] and tanh activations (a few thousand
/// candidates, well under a second of dry runs).
VettedSeed vet_ea_seed(std::uint64_t workload_seed, double half_box,
                       std::size_t target_units) {
  const RcutOnlyEvaluator evaluator(half_box);
  const core::DeepMDRepresentation representation;
  core::EngineConfig config = engine_config();
  for (std::size_t k = 0; k < 1000000; ++k) {
    VettedSeed vetted;
    vetted.ea_seed = util::hash_combine(workload_seed, 0xEA5EED00ULL + k);
    vetted.candidates_tried = k + 1;
    const core::RunRecord record = core::EvolutionEngine(config, evaluator).run(vetted.ea_seed);
    std::size_t accepted = 0;
    bool in_band = true;
    for (const core::EvalRecord& eval : record.all_evaluations()) {
      vetted.genomes.push_back(eval.genome);
      vetted.accepted.push_back(eval.status == ea::EvalStatus::kOk);
      if (!vetted.accepted.back()) continue;
      ++accepted;
      const core::HyperParams hp = representation.decode(eval.genome);
      in_band = in_band && hp.rcut >= kRcutBandLo && hp.rcut <= kRcutBandHi &&
                hp.desc_activ_func == nn::Activation::kTanh &&
                hp.fitting_activ_func == nn::Activation::kTanh;
    }
    vetted.critical_units = critical_path_units(vetted.accepted);
    if (in_band && accepted == target_units &&
        std::lround(vetted.critical_units) == static_cast<long>(target_units)) {
      return vetted;
    }
  }
  throw util::ValueError("no EA seed meets the campaign target");
}

std::string campaign_fingerprint(const std::vector<core::EvalRecord>& records) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const core::EvalRecord& record : records) {
    hash = fnv1a(record.uuid.data(), record.uuid.size(), hash);
    hash = fnv1a(record.genome.data(), record.genome.size() * sizeof(double), hash);
    hash = fnv1a(record.fitness.data(), record.fitness.size() * sizeof(double), hash);
    const auto status = static_cast<unsigned char>(record.status);
    hash = fnv1a(&status, 1, hash);
  }
  return hex64(hash);
}

ea::Individual individual_of(const core::EvalRecord& record) {
  ea::Individual individual;
  individual.genome = record.genome;
  individual.uuid = util::Uuid::parse(record.uuid);
  return individual;
}

/// Median loss_and_grad time per training frame with the SIMD kernels on
/// and off (two passes over `frames`), alternating per call so that slow
/// drift in the host's speed affects both alike.
std::pair<double, double> grad_frame_ms(const dp::DeepPotModel& model,
                                        const md::FrameDataset& data, std::size_t frames) {
  const dp::FastGraph graph(model);
  dp::FastWorkspace workspace;
  std::vector<double> grad(model.num_params());
  std::vector<dp::FrameGeometry> geometry(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    dp::build_frame_geometry(model, data.frame(f), model.build_topology(data.frame(f)),
                             geometry[f]);
  }
  const dp::LossWeights weights{0.02, 1000.0};
  std::vector<double> simd_ms, scalar_ms;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t f = 0; f < frames; ++f) {
      const md::Frame& frame = data.frame(f);
      for (const bool simd : {true, false}) {
        nn::simd::set_enabled(simd);
        (simd ? simd_ms : scalar_ms).push_back(time_ms([&] {
          graph.loss_and_grad(geometry[f], frame.energy, frame.forces, weights, workspace,
                              grad);
        }));
      }
    }
  }
  nn::simd::set_enabled(true);
  return {median(simd_ms), median(scalar_ms)};
}

double mean_directed_pairs(const md::FrameDataset& data, double rcut,
                           std::size_t frames) {
  double pairs = 0.0;
  for (std::size_t f = 0; f < frames; ++f) {
    const md::Frame& frame = data.frame(f);
    const md::NeighborList list(md::Box(frame.box_length), frame.positions, rcut);
    for (std::size_t i = 0; i < list.size(); ++i) {
      pairs += static_cast<double>(list.neighbors_of(i).size());
    }
  }
  return pairs / static_cast<double>(frames);
}

}  // namespace

Result run_hpo_process(const Options& options) {
  Result result;
  const fs::path data_dir = fs::absolute(options.work_dir / "data");
  const fs::path train_dir = data_dir / "train";
  const fs::path valid_dir = data_dir / "validation";

  // -- set-up: reference data generation and dataset save -------------------
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::paper_system();
  sim.num_frames = kReferenceFrames;
  sim.seed = util::hash_combine(options.seed, 0xDA7A);
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    fs::remove_all(data_dir);
    const Clock::time_point start = Clock::now();
    const md::LabelledData data = md::generate_reference_data(sim);
    data.train.save(train_dir);
    data.validation.save(valid_dir);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  const double box = sim.spec.box_length();
  const double half_box = 0.5 * box;

  const std::size_t target_units = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(options.seconds / kSecondsPerAcceptedUnit)));
  const VettedSeed vetted = vet_ea_seed(options.seed, half_box, target_units);

  // -- the campaign ---------------------------------------------------------
  core::SubprocessEvalOptions subprocess;
  subprocess.dp_train_binary = fs::absolute(options.bin_dir / "dp_train");
  subprocess.train_data_dir = train_dir;
  subprocess.validation_data_dir = valid_dir;
  subprocess.workspace_dir = fs::absolute(options.work_dir / "runs");
  subprocess.input_template = input_template();
  subprocess.wall_limit_seconds = 600.0;  // far above any evaluation
  core::EvalBackendConfig backend;
  backend.backend = core::EvalBackend::kSubprocess;
  backend.subprocess = subprocess;
  const std::unique_ptr<core::Evaluator> local = core::make_evaluator(backend);

  hpc::ClusterBackendConfig cluster_backend;
  cluster_backend.kind = hpc::ClusterBackendKind::kProcess;
  cluster_backend.process.worker_binary = fs::absolute(options.bin_dir / "dpho_worker");
  cluster_backend.process.num_workers = kWorkers;
  cluster_backend.process.eval_config_json =
      core::eval_backend_config_to_json(backend).dump();
  cluster_backend.process.allow_inprocess_fallback = false;

  SessionLog log;
  core::EngineConfig config = engine_config();
  config.session_factory = [&](const hpc::ClusterSpec& cluster,
                               const hpc::FarmConfig& farm) {
    return std::make_unique<RecordingSession>(
        hpc::make_cluster_session(cluster, farm, cluster_backend), log,
        options.trace);
  };
  const Clock::time_point campaign_start = Clock::now();
  const core::RunRecord record = core::EvolutionEngine(config, *local).run(vetted.ea_seed);
  const double campaign_s = seconds_between(campaign_start, Clock::now());
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const std::vector<core::EvalRecord> records = record.all_evaluations();

  // -- outcome accounting (records are in delivery = task-id order) ----------
  std::vector<bool> diverged;
  std::vector<double> accepted_latency_ms, non_launch_ms;
  std::optional<std::size_t> first_accepted, first_rejected;
  std::size_t accepted = 0, failures = 0;
  double launch_s_total = 0.0;
  for (std::size_t id = 0; id < records.size(); ++id) {
    const core::EvalRecord& eval = records[id];
    const fs::path log_path = subprocess.workspace_dir / eval.uuid / "stdout.log";
    diverged.push_back(fs::exists(log_path) &&
                       util::read_file(log_path).find("diverged") != std::string::npos);
    launch_s_total += eval.runtime_minutes;  // 1 simulated minute per real second
    const EvalClass kind = classify(eval);
    if (kind == EvalClass::kSystemFailure) ++failures;
    if (kind == EvalClass::kRejected && !first_rejected) first_rejected = id;
    if (kind != EvalClass::kAccepted) continue;
    ++accepted;
    if (!first_accepted) first_accepted = id;
    if (log.submitted.count(id) && log.delivered.count(id)) {
      const double latency = ms_between(log.submitted.at(id), log.delivered.at(id));
      accepted_latency_ms.push_back(latency);
      non_launch_ms.push_back(latency - eval.runtime_minutes * 1e3);
    }
  }
  result.attempted = records.size();
  result.failed = failures;

  // -- output checks --------------------------------------------------------
  result.add_violations(check_campaign(records, box, diverged));
  result.check(records.size() == kBudget,
               "campaign delivered " + std::to_string(records.size()) + " of " +
                   std::to_string(kBudget) + " evaluations");
  bool as_vetted = records.size() == vetted.genomes.size();
  for (std::size_t i = 0; as_vetted && i < records.size(); ++i) {
    as_vetted = records[i].genome == vetted.genomes[i] &&
                (classify(records[i]) == EvalClass::kAccepted) == vetted.accepted[i];
  }
  result.check(as_vetted, "campaign genomes or outcomes differ from the vetted prediction");
  result.check(first_accepted.has_value() && accepted_latency_ms.size() == accepted,
               "no accepted evaluation with a recorded latency");
  result.meta["archive_fingerprint"] = campaign_fingerprint(records);

  // Re-train one accepted run's input.json in-process: it must reproduce the
  // run's lcurve.out.  In a traced run the same sequence is the replay of
  // dp_train's phases: dataset load, training, model dump and file write.
  std::optional<dp::DeepPotModel> trained;
  std::optional<md::FrameDataset> train_data, valid_data;
  dp::ModelSpec spec;
  if (first_accepted) {
    const core::EvalRecord& eval = records[*first_accepted];
    const fs::path run_dir = subprocess.workspace_dir / eval.uuid;
    const dp::TrainInput input =
        dp::TrainInput::from_json_text(util::read_file(run_dir / "input.json"));
    spec = dp::ModelSpec::from_train_input(input);
    const double load_ms = time_ms([&] {
      train_data.emplace(md::FrameDataset::load(train_dir));
      valid_data.emplace(md::FrameDataset::load(valid_dir));
    });
    std::optional<dp::TrainResult> retrained;
    std::optional<dp::Trainer> trainer;
    const double train_ms = time_ms([&] {
      trainer.emplace(input, *train_data, *valid_data);
      retrained.emplace(trainer->train());
    });
    const fs::path lcurve = options.work_dir / "retrain.lcurve.out";
    retrained->lcurve.write(lcurve);
    result.check(dp::LcurveReader::final_validation_losses(lcurve) ==
                     dp::LcurveReader::final_validation_losses(run_dir / "lcurve.out"),
                 "in-process re-training of " + eval.uuid +
                     " does not reproduce its lcurve.out");
    trained.emplace(trainer->model());
    if (options.trace) {
      std::string text;
      const double dump_ms = time_ms([&] { text = trained->save().dump(2); });
      const double write_ms =
          time_ms([&] { util::write_file(options.work_dir / "model.json", text); });
      // core.launch_ms: the whole evaluation replayed through the evaluator.
      const core::SubprocessEvaluator replay_evaluator([&] {
        core::SubprocessEvalOptions replay = subprocess;
        replay.workspace_dir = fs::absolute(options.work_dir / "replay");
        return replay;
      }());
      const double launch_ms = time_ms([&] {
        replay_evaluator.evaluate(individual_of(eval), 1);
      });
      double reject_ms = 0.0;
      if (first_rejected) {
        reject_ms = time_ms([&] {
          replay_evaluator.evaluate(individual_of(records[*first_rejected]), 2);
        });
      }
      result.per_layer["core.launch_ms"] = {launch_ms, "ms"};
      result.per_layer["core.reject_ms"] = {reject_ms, "ms"};
      result.per_layer["md.dataset_load_ms"] = {load_ms, "ms"};
      result.per_layer["dp.train_ms"] = {train_ms, "ms"};
      result.per_layer["util.json_dump_ms"] = {dump_ms, "ms"};
      result.per_layer["util.fs_write_ms"] = {write_ms, "ms"};
      result.per_layer["util.model_json_mb"] = {
          static_cast<double>(text.size()) / (1024.0 * 1024.0), "MB"};
      util::Json split = util::Json(util::JsonObject{});
      split["whole_ms"] = launch_ms;
      split["md.dataset_load_ms"] = load_ms;
      split["dp.train_ms"] = train_ms;
      split["util.json_dump_ms"] = dump_ms;
      split["util.fs_write_ms"] = write_ms;
      const double residual = launch_ms - load_ms - train_ms - dump_ms - write_ms;
      split["residual_ms"] = residual;
      split["residual_share"] = residual / launch_ms;
      result.meta["core.launch_ms_split"] = split;
    }
  }

  if (trained) {
    const std::size_t frames = std::min<std::size_t>(8, train_data->size());
    const double pairs = mean_directed_pairs(*train_data, spec.descriptor.rcut, frames);
    const double flops =
        grad_frame_flops(spec, pairs, static_cast<double>(train_data->num_atoms()));
    result.meta["computed_flops_per_grad_frame"] = flops;
    result.meta["grad_frame_directed_pairs"] = pairs;
    if (options.trace) {
      const auto [grad_ms, grad_scalar_ms] = grad_frame_ms(*trained, *train_data, frames);
      const dp::Potential potential = dp::Potential::borrow(*trained);
      std::vector<double> eval_ms;
      for (std::size_t f = 0; f < std::min<std::size_t>(8, valid_data->size()); ++f) {
        eval_ms.push_back(time_ms([&] { potential.evaluate(valid_data->frame(f)); }));
      }
      result.per_layer["dp.grad_frame_ms"] = {grad_ms, "ms"};
      result.per_layer["dp.eval_frame_ms"] = {median(eval_ms), "ms"};
      result.per_layer["dp.train_gflops"] = {flops / (grad_ms * 1e-3) / 1e9, "GFLOP/s"};
      result.per_layer["nn.simd_speedup"] = {grad_scalar_ms / grad_ms, "ratio"};
    }
  }

  // -- metrics --------------------------------------------------------------
  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  result.end_to_end["throughput_per_s"] = {
      static_cast<double>(records.size()) / campaign_s, "1/s"};
  if (!accepted_latency_ms.empty()) report_latency(result, accepted_latency_ms);
  result.end_to_end["ok_share"] = {
      1.0 - static_cast<double>(failures) / static_cast<double>(kBudget), "ratio"};

  if (options.trace) {
    std::size_t held = 0;
    for (const auto& [id, blocked] : log.blocked_ms) held += blocked < 1.0 ? 1 : 0;
    result.per_layer["core.engine_self_ms"] = {
        log.engine_self_ms / static_cast<double>(std::max<std::size_t>(1, records.size())),
        "ms"};
    result.per_layer["core.accept_share"] = {
        static_cast<double>(accepted) / static_cast<double>(records.size()), "ratio"};
    result.per_layer["hpc.pool_busy_share"] = {
        launch_s_total / (static_cast<double>(kWorkers) * campaign_s), "ratio"};
    result.per_layer["hpc.held_deliveries"] = {static_cast<double>(held), "count"};
    result.per_layer["hpc.non_launch_ms"] = {mean(non_launch_ms), "ms"};
  }

  result.meta["campaign_s"] = campaign_s;
  result.meta["ea_seed"] = hex64(vetted.ea_seed);
  result.meta["ea_seed_candidates_tried"] = vetted.candidates_tried;
  result.meta["evaluations"] = records.size();
  result.meta["accepted"] = accepted;
  result.meta["predicted_critical_path_evaluations"] = vetted.critical_units;
  result.meta["workers"] = kWorkers;
  result.meta["population"] = kPopulation;
  result.meta["train_steps"] = kTrainSteps;
  result.meta["reference_frames"] = kReferenceFrames;
  return result;
}

}  // namespace perfbench
