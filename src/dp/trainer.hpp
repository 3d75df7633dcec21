// The training loop: the stand-in for `dp train`.
//
// Minimizes the DeePMD loss with Adam under the exponential learning-rate
// decay, recording an lcurve and honouring a wall-clock budget (the paper
// caps every training at two hours; individuals that exceed it are "unfit",
// section 2.2.4).  The trainer is deterministic for a given seed -- and
// bit-identical for a given seed at ANY thread count: the data-parallel path
// evaluates gradient groups concurrently but assigns frames to fused groups
// by batch index alone and reduces the group buffers in fixed order (see
// hpc/parallel.hpp for why that matters for floats).  The fused group width
// is a fixed constant of the trainer, never derived from the worker count.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dp/config.hpp"
#include "dp/fast_graph.hpp"
#include "dp/lcurve.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"  // evaluating the trained model: Potential::borrow(model())
#include "hpc/scratch.hpp"
#include "md/dataset.hpp"

namespace dpho::hpc {
class ThreadPool;
}

namespace dpho::dp {

/// Outcome of a completed training run.
struct TrainResult {
  double rmse_e_val = 0.0;  // final per-atom energy RMSE on validation, eV/atom
  double rmse_f_val = 0.0;  // final force-component RMSE on validation, eV/A
  std::size_t steps_completed = 0;
  double wall_seconds = 0.0;
  LcurveWriter lcurve;
};

/// Options beyond the input.json config.
struct TrainerOptions {
  /// Hard wall-clock budget in seconds; exceeded -> util::TimeoutError,
  /// matching the subprocess TimeoutError in the paper's workflow.
  std::optional<double> wall_limit_seconds;
  /// Data-parallel gradient workers.  0 (or 1) = serial, preserving the
  /// single-threaded behaviour; N > 1 = fused frame groups of a batch get
  /// their gradients evaluated concurrently on an owned N-thread pool.
  std::size_t num_threads = 0;
  /// Injected shared pool; overrides num_threads when set (not owned; must
  /// outlive the trainer).  Lets co-located trainings -- e.g. the in-process
  /// evaluator under the task farm -- share one pool instead of
  /// oversubscribing cores.
  hpc::ThreadPool* pool = nullptr;
};

class Trainer {
 public:
  Trainer(const TrainInput& config, const md::FrameDataset& train,
          const md::FrameDataset& validation, TrainerOptions options = {});
  ~Trainer();

  /// Runs the full step budget; throws util::TimeoutError when the wall
  /// budget is exhausted and util::ValueError when the loss diverges to
  /// non-finite values (a "failed training" in the paper's terms).
  TrainResult train();

  /// The model being trained (valid after construction; trained after train()).
  const DeepPotModel& model() const { return model_; }

 private:
  /// Validation RMSEs over the cached validation frames.
  std::pair<double, double> validation_rmse() const;

  /// The pool gradient work runs on: injected > owned (num_threads > 1) >
  /// nullptr (serial).  Lazily creates the owned pool on first use.
  hpc::ThreadPool* gradient_pool();

  TrainInput config_;
  const md::FrameDataset& train_data_;
  const md::FrameDataset& validation_data_;
  TrainerOptions options_;
  DeepPotModel model_;
  std::unique_ptr<hpc::ThreadPool> owned_pool_;
  hpc::ThreadPool* pool_ = nullptr;  // resolved by gradient_pool()
  // Frames never move during training: each training frame's geometry and
  // the first validation frames' are built once per train() call (in
  // parallel), so steps start straight at the embedding-net batches.
  std::vector<FrameGeometry> train_geometry_;
  std::vector<FrameGeometry> validation_geometry_;
  // Bound to model_; gradients and validation predictions both run here
  // (parameter updates are visible because the kernels read them per call).
  FastGraph fast_graph_;
  // One reusable kernel arena per gradient worker thread.
  hpc::ThreadScratch<FastWorkspace> workspaces_;
  // Preallocated per-step buffers for the fused gradient groups (sized once
  // in train(), reused every step -- no per-step gradient allocations).
  std::vector<FrameTarget> frame_targets_;    // batch_size entries
  std::vector<double> frame_losses_;          // batch_size entries
  std::vector<std::vector<double>> group_grads_;  // num_groups x num_params
};

}  // namespace dpho::dp
