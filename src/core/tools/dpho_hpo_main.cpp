// dpho_hpo: the production entry point -- run the paper's multiobjective
// hyperparameter optimization end to end and export the analysis artifacts.
//
//   dpho_hpo [--pop N] [--generations N] [--runs N] [--out DIR]
//            [--mode generational|async] [--runtime-objective]
//            [--cluster sim|process] [--workers N] [--worker-binary PATH]
//            [--failure-rate P] [--fault-plan FILE] [--trace-dir DIR]
//            [--checkpoint-dir DIR] [--resume] [--threads N]
//            [--metrics-out FILE] [--metrics-interval N] [--quiet]
//
// Default configuration reproduces the paper: 100 individuals x 7 waves x
// 5 runs on the simulated 100-node Summit allocation with surrogate-backed
// evaluations.  Exports evaluations.csv, parallel_coordinates.csv,
// sensitivity.csv and summary.json to --out.  Both modes run on the unified
// EvolutionEngine, so fault injection, trace export and checkpoint/resume
// compose with either.
//
// --cluster process swaps the simulated DaskCluster for hpc::ProcessCluster:
// real dpho_worker subprocesses over loopback TCP, with the same fault plan
// driving real SIGKILLs instead of bookkeeping (DESIGN.md section 11).
#include <cstdio>
#include <filesystem>

#include "core/analysis.hpp"
#include "core/eval_config_io.hpp"
#include "core/experiment.hpp"
#include "core/sensitivity.hpp"
#include "hpc/cluster_factory.hpp"
#include "hpc/faultplan_io.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"

namespace {

// The dpho_worker binary normally sits next to dpho_hpo in the build tree;
// resolve it relative to the running executable so `dpho_hpo --cluster
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
  args.add_flag("--pop", "population size (= nodes), default 100")
      .add_flag("--generations", "offspring generations beyond gen 0, default 6")
      .add_flag("--runs", "independent EA deployments, default 5")
      .add_flag("--out", "output directory for CSV/JSON artifacts")
      .add_flag("--mode", "schedule: generational (default) or async")
      .add_flag("--async", "shorthand for --mode async", false)
      .add_flag("--runtime-objective",
                "minimize training runtime as a third objective", false)
      .add_flag("--failure-rate", "node-failure probability per task, default 5e-4")
      .add_flag("--fault-plan", "JSON file of scripted fault events")
      .add_flag("--trace-dir", "write per-batch schedule traces here")
      .add_flag("--checkpoint-dir",
                "persist per-seed EA state here (both modes)")
      .add_flag("--resume",
                "resume interrupted runs from --checkpoint-dir", false)
      .add_flag("--checkpoint-every",
                "async mode: completions between checkpoints, default 1")
      .add_flag("--quiet", "suppress the analysis printout", false)
      .add_flag("--help", "show this message", false);
  // Shared execution-backend flags (--cluster/--workers/--worker-binary/
  // --threads/--metrics-out/--metrics-interval): same names, defaults and
  // error messages as dp_train and dp_serve.
  const util::BackendFlagOptions backend_options{.cluster = true,
                                                 .default_threads = 2};
  util::add_backend_flags(args, backend_options);
  util::BackendFlags backend;
  core::ExperimentConfig config;
  core::EngineConfig& engine = config.engine;
  std::size_t runs = 0;
  try {
    args.parse(argc, argv);
    backend = util::parse_backend_flags(args, backend_options);
    engine.population_size = args.get_count("--pop", 100, 1);
    engine.generations = args.get_count("--generations", 6);
    runs = args.get_count("--runs", 5, 1);
    engine.checkpoint_every = args.get_count("--checkpoint-every", 1, 1);
    engine.farm.node_failure_probability = args.get("--failure-rate", 5e-4);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage("dpho_hpo").c_str());
    return 2;
  }
  if (args.has("--help")) {
    std::fputs(args.usage("dpho_hpo").c_str(), stdout);
    return 0;
  }
  const bool quiet = args.has("--quiet");

  if (args.has("--mode")) {
    const std::string name = args.get("--mode", std::string("generational"));
    if (name == "generational") {
      engine.mode = core::ScheduleMode::kGenerational;
    } else if (name == "async" || name == "steady_state") {
      engine.mode = core::ScheduleMode::kSteadyState;
    } else {
      std::fprintf(stderr, "--mode must be generational or async, got %s\n",
                   name.c_str());
      return 2;
    }
  }
  if (args.has("--async")) engine.mode = core::ScheduleMode::kSteadyState;

  if (args.has("--resume") && !args.has("--checkpoint-dir")) {
    std::fprintf(stderr, "--resume needs --checkpoint-dir\n");
    return 2;
  }

  // Backend construction goes through the one factory switch; this tool uses
  // the surrogate backend (paper-scale simulated cluster).
  const std::unique_ptr<core::Evaluator> evaluator =
      core::make_evaluator(core::EvalBackendConfig{});

  engine.include_runtime_objective = args.has("--runtime-objective");
  engine.farm.real_threads = backend.threads;
  engine.metrics_interval = backend.metrics_interval;

  engine.cluster_backend.kind = hpc::cluster_backend_from_string(backend.cluster);
  if (engine.cluster_backend.kind == hpc::ClusterBackendKind::kProcess) {
    hpc::ProcessClusterConfig& process = engine.cluster_backend.process;
    process.worker_binary = backend.worker_binary.empty()
                                ? default_worker_binary()
                                : std::filesystem::path(backend.worker_binary);
    process.num_workers = backend.workers;
    // Ship the same backend configuration the local evaluator uses, so a
    // process-cluster run reproduces the sim run's fitness bit for bit.
    process.eval_config_json =
        core::eval_backend_config_to_json(core::EvalBackendConfig{}).dump();
  }

  // The run-wide observability layer: --metrics-out starts the JSONL event
  // timeline; the registry summary lands next to the archive after the run.
  std::optional<std::filesystem::path> metrics_out;
  if (!backend.metrics_out.empty()) {
    metrics_out = backend.metrics_out;
    try {
      obs::events().open(*metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 2;
    }
  }
  if (args.has("--fault-plan")) {
    try {
      engine.farm.faults =
          hpc::load_fault_plan(args.get("--fault-plan", std::string()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--fault-plan: %s\n", e.what());
      return 2;
    }
  }
  if (args.has("--trace-dir")) {
    engine.trace_dir = args.get("--trace-dir", std::string("traces"));
  }
  if (args.has("--checkpoint-dir")) {
    engine.checkpoint_dir = args.get("--checkpoint-dir", std::string("checkpoints"));
    engine.resume = args.has("--resume");
  }
  config.seeds.clear();
  for (std::size_t seed = 1; seed <= runs; ++seed) config.seeds.push_back(seed);

  core::ExperimentRunner runner(config, *evaluator);
  const std::vector<core::RunRecord> results = runner.run_all();
  if (!quiet) {
    for (const auto& run : results) {
      std::printf("%s run %llu: %zu evaluations in %.0f simulated minutes"
                  " (%.0f%% busy)\n",
                  core::to_string(run.mode).c_str(),
                  static_cast<unsigned long long>(run.seed),
                  run.total_evaluations(), run.job_minutes,
                  100.0 * run.busy_fraction);
    }
  }

  const auto last = core::last_generation_solutions(results);
  const core::DeepMDRepresentation repr;
  if (!quiet) {
    const auto front = core::pareto_front(last);
    std::printf("\nPareto frontier (%zu points):\n", front.size());
    for (std::size_t i : front) {
      std::printf("  F=%.4f E=%.4f  %s\n", last[i].fitness[1], last[i].fitness[0],
                  repr.decode(last[i].genome).describe().c_str());
    }
    const core::AxisMarginals marginals = core::axis_marginals(last, repr);
    std::printf("\n%zu/%zu chemically accurate; min accurate rcut %.2f A;"
                " max runtime %.1f min\n",
                marginals.num_accurate, marginals.num_total,
                marginals.min_rcut_accurate, marginals.max_runtime);
  }

  if (args.has("--out")) {
    const std::filesystem::path out = args.get("--out", std::string("results"));
    core::export_results(results, out);
    util::write_file(out / "parallel_coordinates.csv",
                     core::parallel_coordinates_csv(last, repr));
    const core::SensitivityAnalysis sensitivity;
    util::write_file(out / "sensitivity.csv",
                     core::SensitivityAnalysis::to_csv(sensitivity.run()));
    std::printf("\nartifacts written to %s: evaluations.csv,"
                " parallel_coordinates.csv, sensitivity.csv, summary.json\n",
                out.string().c_str());
  }

  if (metrics_out) {
    // Next to the archive when --out is set, else next to the timeline.  The
    // "deterministic" section is byte-reproducible across runs and thread
    // counts; wall-clock figures are quarantined under "timing".
    const std::filesystem::path summary_path =
        args.has("--out")
            ? std::filesystem::path(args.get("--out", std::string("results"))) /
                  "metrics_summary.json"
            : metrics_out->parent_path() / "metrics_summary.json";
    util::write_file(summary_path, obs::metrics().to_json().dump(2) + "\n");
    obs::events().close();
    if (!quiet) {
      std::printf("metrics: %s + %s\n", metrics_out->string().c_str(),
                  summary_path.string().c_str());
    }
  }
  return 0;
}
