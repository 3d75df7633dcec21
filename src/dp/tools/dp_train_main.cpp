// dp_train: command-line trainer, the stand-in for DeePMD-kit's `dp` binary.
//
// The paper's evaluation workflow invokes `dp` as a subprocess in a
// per-individual run directory containing an input.json, and then reads the
// final rmse_e_val / rmse_f_val from lcurve.out (section 2.2.4).  This tool
// provides exactly that contract:
//
//   dp_train <input.json> <train_data_dir> <validation_data_dir>
//            [--out DIR] [--wall-limit SECONDS] [--threads N]
//            [--metrics-out FILE] [--archive DIR] [--model-id ID]
//
// Gradients come from the analytic fused kernels (dp/fast_graph.hpp).
// --threads enables data-parallel gradient accumulation (0/1 = serial); the
// lcurve is bit-identical across thread counts for a fixed seed.
// --metrics-out streams the JSONL event timeline (trainer.row events) to
// FILE and writes metrics_summary.json into --out on exit.
// --archive appends the trained model (with its validation RMSEs as
// objectives) to a dp::ModelArchive catalog so dp_serve can pick it up;
// --model-id names the catalog row (default "model").
// Outputs (in --out, default "."): lcurve.out and the model artifact,
// model.json (a small header) beside model.params (the raw float64
// parameters), both written atomically, the blob first.
// Exit codes: 0 success, 2 bad usage, 3 timeout, 4 diverged/failed training.
#include <filesystem>
#include <iostream>
#include <string>

#include "dp/archive.hpp"
#include "dp/lcurve.hpp"
#include "dp/trainer.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

int main(int argc, char** argv) {
  using namespace dpho;
  util::ArgParser args;
  args.add_flag("--out",
                "output directory for lcurve.out/model.json/model.params, default .")
      .add_flag("--wall-limit", "hard wall-clock budget in seconds")
      .add_flag("--archive", "append the trained model to this dp::ModelArchive")
      .add_flag("--model-id", "catalog id for --archive, default 'model'")
      .add_flag("--help", "show this message", false);
  // Shared execution-backend flags (--threads/--metrics-out/
  // --metrics-interval): same names, defaults and error messages as dpho_hpo
  // and dp_serve.  dp_train has no cluster backend, so that trio is omitted.
  const util::BackendFlagOptions backend_options{.cluster = false,
                                                 .default_threads = 0};
  util::add_backend_flags(args, backend_options);

  const std::string usage_text =
      args.usage("dp_train <input.json> <train_data_dir> <validation_data_dir>");
  util::BackendFlags backend;
  dp::TrainerOptions options;
  try {
    args.parse(argc, argv);
    backend = util::parse_backend_flags(args, backend_options);
  } catch (const std::exception& e) {
    std::cerr << "dp_train: " << e.what() << "\n" << usage_text;
    return 2;
  }
  if (args.has("--help")) {
    std::cout << usage_text;
    return 0;
  }
  if (args.positional().size() != 3) {
    std::cerr << usage_text;
    return 2;
  }
  const std::filesystem::path input_path = args.positional()[0];
  const std::filesystem::path train_dir = args.positional()[1];
  const std::filesystem::path valid_dir = args.positional()[2];
  const std::filesystem::path out_dir = args.get("--out", std::string("."));
  options.num_threads = backend.threads;
  if (args.has("--wall-limit")) {
    options.wall_limit_seconds = args.get("--wall-limit", 0.0);
  }

  const std::filesystem::path metrics_out = backend.metrics_out;
  if (!metrics_out.empty()) {
    try {
      obs::events().open(metrics_out);
    } catch (const std::exception& e) {
      std::cerr << "dp_train: --metrics-out: " << e.what() << "\n";
      return 2;
    }
  }
  // Summary written on every exit path (timeouts included) so a killed
  // training still leaves its timing evidence behind.
  const auto write_metrics = [&] {
    if (metrics_out.empty()) return;
    try {
      util::write_file(out_dir / "metrics_summary.json",
                       obs::metrics().to_json().dump(2) + "\n");
    } catch (const std::exception& e) {
      std::cerr << "dp_train: metrics summary not written: " << e.what() << "\n";
    }
    obs::events().close();
  };

  try {
    const dp::TrainInput config =
        dp::TrainInput::from_json_text(util::read_file(input_path));
    const md::FrameDataset train = md::FrameDataset::load(train_dir);
    const md::FrameDataset validation = md::FrameDataset::load(valid_dir);
    dp::Trainer trainer(config, train, validation, options);
    const dp::TrainResult result = trainer.train();
    result.lcurve.write(out_dir / "lcurve.out");
    trainer.model().save_file(out_dir / "model.json");
    if (args.has("--archive")) {
      const std::filesystem::path archive_dir =
          args.get("--archive", std::string());
      dp::ModelArchive archive =
          std::filesystem::exists(archive_dir / "archive.json")
              ? dp::ModelArchive::open(archive_dir)
              : dp::ModelArchive::create(archive_dir);
      archive.add(args.get("--model-id", std::string("model")), trainer.model(),
                  {{"rmse_e_val", result.rmse_e_val},
                   {"rmse_f_val", result.rmse_f_val}});
    }
    std::cout << "training finished: steps=" << result.steps_completed
              << " rmse_e_val=" << result.rmse_e_val
              << " rmse_f_val=" << result.rmse_f_val
              << " wall_s=" << result.wall_seconds << "\n";
    write_metrics();
    return 0;
  } catch (const util::TimeoutError& e) {
    std::cerr << "dp_train: " << e.what() << "\n";
    write_metrics();
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "dp_train: " << e.what() << "\n";
    write_metrics();
    return 4;
  }
}
