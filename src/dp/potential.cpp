#include "dp/potential.hpp"

#include "hpc/parallel.hpp"
#include "util/error.hpp"

namespace dpho::dp {

namespace {

// Runs before graph_ is built from the model.
const DeepPotModel& checked(const std::shared_ptr<const DeepPotModel>& model) {
  return model ? *model : throw util::ValueError("Potential: null model");
}

}  // namespace

Potential::Potential(DeepPotModel model)
    : Potential(std::make_shared<const DeepPotModel>(std::move(model))) {}

Potential::Potential(std::shared_ptr<const DeepPotModel> model)
    : model_(std::move(model)),
      graph_(checked(model_)),
      scratch_(std::make_unique<hpc::ThreadScratch<EvalScratch>>()) {}

Potential Potential::borrow(const DeepPotModel& model) {
  // Non-owning aliasing handle; the caller guarantees the model's lifetime.
  return Potential(std::shared_ptr<const DeepPotModel>(
      std::shared_ptr<const DeepPotModel>(), &model));
}

Potential Potential::load_file(const std::string& path) {
  return Potential(DeepPotModel::load_file(path));
}

md::ForceEnergy Potential::evaluate(const md::Frame& frame) const {
  EvalScratch& scratch = scratch_->local();
  build_frame_geometry(*model_, frame, model_->build_topology(frame),
                       scratch.geometry);
  return graph_.energy_forces(scratch.geometry, scratch.workspace);
}

std::vector<md::ForceEnergy> Potential::evaluate(std::span<const md::Frame> frames,
                                                 hpc::ThreadPool* pool) const {
  return hpc::parallel_map<md::ForceEnergy>(
      pool, frames.size(), [&](std::size_t i) { return evaluate(frames[i]); });
}

}  // namespace dpho::dp
