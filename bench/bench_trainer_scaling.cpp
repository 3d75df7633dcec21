// Data-parallel trainer scaling: steps/sec and speedup at 1/2/4/8 gradient
// threads, plus the determinism contract -- the lcurve must be bit-identical
// at every thread count (fixed-order reduction, see hpc/parallel.hpp).
//
// Emits BENCH_trainer.json:
//   {"bench": "trainer_scaling", "hardware_concurrency": N,
//    "steps": S, "atoms": A, "batch_size": B, "lcurve_identical": true,
//    "results": [{"threads": T, "steps_per_sec": X, "speedup": Y}, ...],
//    "metrics": {"schema": "dpho.metrics.v1", ...}}
//
// The `metrics` block is the process-wide obs registry (the same
// dpho.metrics.v1 document `--metrics-out` runs write), so bench artifacts
// and run summaries share one schema: trainer.* counters/timers land here
// exactly as they do in metrics_summary.json.
//
// Usage: bench_trainer_scaling [--smoke] [--out FILE]
//   --smoke  reduced scale (CI-friendly); also self-validates the JSON
//            schema after writing and exits nonzero on any violation.
#include <bit>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dp/trainer.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

using namespace dpho;

struct ScalingPoint {
  std::size_t threads = 1;
  double steps_per_sec = 0.0;
  double speedup = 1.0;
};

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-level lcurve comparison: every field of every row.
bool lcurves_identical(const std::vector<dp::LcurveRow>& a,
                       const std::vector<dp::LcurveRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].step != b[i].step || !bits_equal(a[i].rmse_e_val, b[i].rmse_e_val) ||
        !bits_equal(a[i].rmse_e_trn, b[i].rmse_e_trn) ||
        !bits_equal(a[i].rmse_f_val, b[i].rmse_f_val) ||
        !bits_equal(a[i].rmse_f_trn, b[i].rmse_f_trn) ||
        !bits_equal(a[i].lr, b[i].lr)) {
      return false;
    }
  }
  return true;
}

/// The smoke run re-reads the artifact and checks the schema the docs and CI
/// depend on; a bench that silently writes garbage is worse than none.
bool validate_schema(const std::filesystem::path& path) {
  const util::Json doc = util::Json::parse(util::read_file(path));
  if (!doc.is_object()) return false;
  for (const char* key :
       {"bench", "hardware_concurrency", "steps", "atoms", "batch_size",
        "lcurve_identical", "results", "metrics"}) {
    if (!doc.contains(key)) {
      std::fprintf(stderr, "BENCH_trainer.json: missing key %s\n", key);
      return false;
    }
  }
  if (!doc.at("results").is_array() || doc.at("results").as_array().empty()) {
    return false;
  }
  for (const util::Json& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) return false;
    for (const char* key : {"threads", "steps_per_sec", "speedup"}) {
      if (!entry.contains(key)) {
        std::fprintf(stderr, "BENCH_trainer.json: result missing key %s\n", key);
        return false;
      }
    }
  }
  if (!obs::is_metrics_document(doc.at("metrics"))) {
    std::fprintf(stderr, "BENCH_trainer.json: metrics block is not a valid"
                         " dpho.metrics.v1 document\n");
    return false;
  }
  // The trainer's own instrumentation must have seen all four scaling runs.
  const util::Json& counters = doc.at("metrics").at("deterministic").at("counters");
  if (counters.number_or("trainer.trainings_total", 0.0) != 4.0) {
    std::fprintf(stderr, "BENCH_trainer.json: expected 4 instrumented"
                         " trainings in metrics block\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::filesystem::path out = "BENCH_trainer.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(smoke ? 1 : 4);
  sim.num_frames = smoke ? 6 : 12;
  sim.equilibration_steps = smoke ? 40 : 80;
  sim.seed = 17;
  const md::LabelledData data = md::generate_reference_data(sim, 0.25);
  const std::size_t atoms = data.train.frame(0).positions.size();

  dp::TrainInput input;
  // rcut must fit under half the (small) benchmark box edge.
  input.descriptor.rcut = 3.2;
  input.descriptor.rcut_smth = 2.0;
  input.descriptor.neuron = smoke ? std::vector<std::size_t>{4, 6}
                                  : std::vector<std::size_t>{8, 16};
  input.descriptor.axis_neuron = smoke ? 2 : 4;
  input.descriptor.sel = smoke ? 24 : 64;
  input.fitting.neuron = smoke ? std::vector<std::size_t>{8}
                               : std::vector<std::size_t>{24, 24};
  input.training.numb_steps = smoke ? 6 : 30;
  input.training.batch_size = 8;  // one frame per gradient worker at 8 threads
  input.training.disp_freq = smoke ? 3 : 10;
  input.training.seed = 99;

  std::printf("trainer scaling: %zu atoms, %zu steps, batch %zu,"
              " hardware_concurrency %u\n",
              atoms, input.training.numb_steps, input.training.batch_size,
              std::thread::hardware_concurrency());

  // Fresh process-wide registry: the embedded metrics block must describe
  // exactly the four instrumented trainings below.
  obs::metrics().reset();

  std::vector<ScalingPoint> points;
  std::vector<dp::LcurveRow> reference_lcurve;
  bool identical = true;
  double serial_steps_per_sec = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    dp::TrainerOptions options;
    options.num_threads = threads;
    dp::Trainer trainer(input, data.train, data.validation, options);
    const obs::ScopedTimer run_timer(obs::metrics(), "bench.run_seconds");
    const dp::TrainResult result = trainer.train();

    ScalingPoint point;
    point.threads = threads;
    point.steps_per_sec =
        static_cast<double>(result.steps_completed) / result.wall_seconds;
    if (threads == 1) {
      serial_steps_per_sec = point.steps_per_sec;
      reference_lcurve = result.lcurve.rows();
    } else if (!lcurves_identical(reference_lcurve, result.lcurve.rows())) {
      identical = false;
    }
    point.speedup = point.steps_per_sec / serial_steps_per_sec;
    std::printf("  %zu threads: %7.2f steps/s  speedup %.2fx\n", point.threads,
                point.steps_per_sec, point.speedup);
    points.push_back(point);
  }
  std::printf("lcurve bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO");

  util::JsonObject doc;
  doc["bench"] = "trainer_scaling";
  doc["hardware_concurrency"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["steps"] = input.training.numb_steps;
  doc["atoms"] = atoms;
  doc["batch_size"] = input.training.batch_size;
  doc["lcurve_identical"] = identical;
  util::JsonArray results;
  for (const ScalingPoint& point : points) {
    util::JsonObject entry;
    entry["threads"] = point.threads;
    entry["steps_per_sec"] = point.steps_per_sec;
    entry["speedup"] = point.speedup;
    results.push_back(util::Json(std::move(entry)));
  }
  doc["results"] = util::Json(std::move(results));
  doc["metrics"] = obs::metrics().to_json();
  util::write_file(out, util::Json(std::move(doc)).dump(2) + "\n");
  std::printf("wrote %s\n", out.string().c_str());

  if (!identical) return 1;
  if (smoke && !validate_schema(out)) return 1;
  return 0;
}
