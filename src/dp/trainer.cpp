#include "dp/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>

#include "dp/loss.hpp"
#include "hpc/parallel.hpp"
#include "hpc/thread_pool.hpp"
#include "nn/optimizer.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dpho::dp {

namespace {

using Clock = std::chrono::steady_clock;

/// Frames per fused gradient pass.  The batch splits into
/// ceil(batch / kFusedFrames) fixed groups by batch index, so the lcurve
/// depends on this value but not on the thread count.
constexpr std::size_t kFusedFrames = 4;

/// Validation frames scored per lcurve row (cost control).
constexpr std::size_t kValidationFrames = 8;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Geometries of frames [0, count) of `data`, built concurrently and
/// returned in frame order.
std::vector<FrameGeometry> build_geometries(const DeepPotModel& model,
                                            const md::FrameDataset& data,
                                            std::size_t count,
                                            hpc::ThreadPool* pool) {
  return hpc::parallel_map<FrameGeometry>(pool, count, [&](std::size_t i) {
    FrameGeometry geometry;
    build_frame_geometry(model, data.frame(i), model.build_topology(data.frame(i)),
                         geometry);
    return geometry;
  });
}

/// Per-frame squared errors of a prediction.
struct FrameErrors {
  double energy_sq_per_atom = 0.0;  // (dE/N)^2
  double force_sq = 0.0;            // mean over 3N components of dF^2
};

FrameErrors frame_errors(const FastGraph& graph, FastWorkspace& workspace,
                         const md::Frame& frame, const FrameGeometry& geometry) {
  const md::ForceEnergy prediction = graph.energy_forces(geometry, workspace);
  const auto n = static_cast<double>(frame.positions.size());
  FrameErrors errors;
  const double de = (prediction.energy - frame.energy) / n;
  errors.energy_sq_per_atom = de * de;
  double ss = 0.0;
  for (std::size_t a = 0; a < frame.forces.size(); ++a) {
    for (std::size_t k = 0; k < 3; ++k) {
      const double df = prediction.forces[a][k] - frame.forces[a][k];
      ss += df * df;
    }
  }
  errors.force_sq = ss / (3.0 * n);
  return errors;
}

}  // namespace

Trainer::Trainer(const TrainInput& config, const md::FrameDataset& train,
                 const md::FrameDataset& validation, TrainerOptions options)
    : config_(config),
      train_data_(train),
      validation_data_(validation),
      options_(options),
      model_(config, train.types(), train.mean_energy_per_atom(),
             util::hash_combine(config.training.seed, 0xDEE9)),
      fast_graph_(model_) {
  if (train.empty()) throw util::ValueError("trainer: empty training set");
  if (validation.empty()) throw util::ValueError("trainer: empty validation set");
}

Trainer::~Trainer() = default;

hpc::ThreadPool* Trainer::gradient_pool() {
  if (options_.pool != nullptr) return options_.pool;
  if (options_.num_threads <= 1) return nullptr;
  if (!owned_pool_) owned_pool_ = std::make_unique<hpc::ThreadPool>(options_.num_threads);
  return owned_pool_.get();
}

std::pair<double, double> Trainer::validation_rmse() const {
  obs::ScopedTimer timer(obs::metrics(), "trainer.validation_seconds");
  const std::size_t count = validation_geometry_.size();
  // Map frames to errors concurrently; accumulate in frame order so the sums
  // match the serial path bit for bit.
  const std::vector<FrameErrors> errors = hpc::parallel_map<FrameErrors>(
      pool_, count, [&](std::size_t i) {
        return frame_errors(fast_graph_, workspaces_.local(),
                            validation_data_.frame(i), validation_geometry_[i]);
      });
  double sum_e = 0.0;
  double sum_f = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    sum_e += errors[i].energy_sq_per_atom;
    sum_f += errors[i].force_sq;
  }
  const auto denom = static_cast<double>(count);
  return {std::sqrt(sum_e / denom), std::sqrt(sum_f / denom)};
}

TrainResult Trainer::train() {
  const auto start_time = Clock::now();
  obs::metrics().counter("trainer.trainings_total").add(1);
  // Records on every exit path, including the wall-limit throw below.
  obs::ScopedTimer wall_timer(obs::metrics(), "trainer.train_wall_seconds");
  obs::Histogram& grad_seconds = obs::metrics().histogram(
      "trainer.grad_seconds", obs::BucketLayout::timing_seconds());
  obs::Counter& steps_total = obs::metrics().counter("trainer.steps_total");
  pool_ = gradient_pool();
  // Frames are static for the whole training: build each geometry once
  // (in parallel) instead of once per step or per lcurve row.
  train_geometry_ = build_geometries(model_, train_data_, train_data_.size(), pool_);
  validation_geometry_ = build_geometries(
      model_, validation_data_,
      std::min(kValidationFrames, validation_data_.size()), pool_);

  const std::size_t total_steps = config_.training.numb_steps;
  const nn::ExponentialDecay schedule(config_.scaled_start_lr(),
                                      config_.learning_rate.stop_lr, total_steps,
                                      config_.learning_rate.decay_steps);
  const DeepmdLoss loss(config_.loss, schedule);

  std::vector<double> params = model_.gather_params();
  nn::Adam optimizer(params.size());
  std::vector<double> grad(params.size(), 0.0);
  util::Rng rng(util::hash_combine(config_.training.seed, 0xBA7C));

  TrainResult result;
  const auto record_row = [&](std::size_t step) {
    const auto [e_val, f_val] = validation_rmse();
    // Training metrics from the first training frame (cheap proxy, the same
    // role DeePMD's rmse_*_trn columns play).
    const FrameErrors trn = frame_errors(fast_graph_, workspaces_.local(),
                                         train_data_.frame(0), train_geometry_[0]);
    result.lcurve.add(LcurveRow{step, e_val, std::sqrt(trn.energy_sq_per_atom), f_val,
                                std::sqrt(trn.force_sq), schedule.lr(step)});
    obs::events().emit("trainer.row",
                       {{"step", static_cast<std::int64_t>(step)},
                        {"rmse_e_val", e_val},
                        {"rmse_f_val", f_val},
                        {"lr", schedule.lr(step)}});
    return std::pair{e_val, f_val};
  };

  const std::size_t batch_size = config_.training.batch_size;
  std::vector<std::size_t> batch_frames(batch_size);
  // The batch is split into fixed groups of kFusedFrames consecutive batch
  // slots, each group running one multi-frame kernel pass into its own
  // preallocated gradient buffer.  Grouping is a function of batch index
  // only, so it is thread-count independent.
  const std::size_t fuse = std::min(kFusedFrames, batch_size);
  const std::size_t num_groups = (batch_size + fuse - 1) / fuse;
  frame_targets_.resize(batch_size);
  frame_losses_.resize(batch_size);
  group_grads_.resize(num_groups);
  for (std::vector<double>& g : group_grads_) g.resize(params.size());
  for (std::size_t step = 0; step < total_steps; ++step) {
    if (options_.wall_limit_seconds &&
        seconds_since(start_time) > *options_.wall_limit_seconds) {
      throw util::TimeoutError("training exceeded wall budget at step " +
                               std::to_string(step));
    }
    const LossWeights weights = loss.weights_at(step);
    // Draw the whole batch's frame indices up front -- the same RNG stream
    // the serial loop consumed per frame -- so gradient workers never touch
    // the RNG and the sampled frames are thread-count independent.
    for (std::size_t b = 0; b < batch_size; ++b) {
      batch_frames[b] = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(train_data_.size()) - 1));
    }

    // Data-parallel forward/backward: one fused multi-frame kernel pass per
    // group in a per-worker arena.  The reduction below walks a fixed order,
    // so the lcurve is bit-identical at any thread count.
    obs::ScopedTimer grad_timer(grad_seconds);
    for (std::size_t b = 0; b < batch_size; ++b) {
      const md::Frame& frame = train_data_.frames()[batch_frames[b]];
      frame_targets_[b] =
          FrameTarget{&train_geometry_[batch_frames[b]], frame.energy, frame.forces};
    }
    const auto run_group = [&](std::size_t g) {
      const std::size_t begin = g * fuse;
      const std::size_t count = std::min(fuse, batch_size - begin);
      fast_graph_.loss_and_grad_fused(
          std::span<const FrameTarget>(frame_targets_).subspan(begin, count),
          weights, workspaces_.local(), group_grads_[g],
          std::span<double>(frame_losses_).subspan(begin, count));
    };
    if (pool_ == nullptr || pool_->size() <= 1 || num_groups <= 1) {
      for (std::size_t g = 0; g < num_groups; ++g) run_group(g);
    } else {
      pool_->parallel_for(num_groups, run_group);
    }
    grad_timer.stop();
    double batch_loss = 0.0;
    for (std::size_t b = 0; b < batch_size; ++b) batch_loss += frame_losses_[b];
    const double inv_batch = 1.0 / static_cast<double>(batch_size);
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t g = 0; g < num_groups; ++g) {
      for (std::size_t p = 0; p < grad.size(); ++p) {
        grad[p] += group_grads_[g][p] * inv_batch;
      }
    }
    if (!std::isfinite(batch_loss)) {
      throw util::ValueError("training diverged: non-finite loss at step " +
                             std::to_string(step));
    }
    optimizer.step(params, grad, schedule.lr(step));
    model_.scatter_params(params);
    if (step % config_.training.disp_freq == 0) record_row(step);
    steps_total.add(1);
    result.steps_completed = step + 1;
  }
  std::tie(result.rmse_e_val, result.rmse_f_val) = record_row(total_steps);
  result.wall_seconds = seconds_since(start_time);
  return result;
}

}  // namespace dpho::dp
