// The one evaluation entry point for a trained DeepPot-SE potential.
//
// Load a model (from a model artifact file, or an HPO run archive via
// dp::ModelArchive) and call evaluate(): a thin call into the analytic
// primal path (neighbor list -> dp::FrameGeometry -> dp::FastGraph forward +
// reverse, no gradient buffers), with per-thread geometry/workspace arenas so
// concurrent callers never contend.  dp_test, dp_serve and the tests
// evaluate frames through it; MD sessions come from make_md_session().
//
// Ownership: a Potential normally owns its model (shared, so copies of the
// Potential are cheap and a serving cache can hand out references safely).
// Potential::borrow wraps a model owned elsewhere; parameter updates through
// the model are visible to the borrowed Potential because FastGraph reads
// the parameters on every call.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/model.hpp"
#include "hpc/scratch.hpp"
#include "hpc/thread_pool.hpp"
#include "md/dataset.hpp"
#include "md/potential.hpp"

namespace dpho::md {
struct SessionOptions;
}  // namespace dpho::md

namespace dpho::dp {

class MdSession;

class Potential {
 public:
  /// Takes ownership of `model`.
  explicit Potential(DeepPotModel model);
  explicit Potential(std::shared_ptr<const DeepPotModel> model);

  /// Wraps a model owned elsewhere; `model` must outlive the Potential.
  static Potential borrow(const DeepPotModel& model);

  /// A model artifact header path (DeepPotModel::load_file).
  static Potential load_file(const std::string& path);

  const DeepPotModel& model() const { return *model_; }
  const ModelSpec& spec() const { return model_->spec(); }
  std::size_t num_atoms() const { return model_->num_atoms(); }

  /// Analytic energy + forces for one frame.
  md::ForceEnergy evaluate(const md::Frame& frame) const;

  /// Batch evaluation in frame order.  With a pool, frames are evaluated
  /// concurrently on per-thread arenas; results are index-ordered and
  /// bit-identical to the serial path at any thread count.
  std::vector<md::ForceEnergy> evaluate(std::span<const md::Frame> frames,
                                        hpc::ThreadPool* pool = nullptr) const;

  /// Persistent MD evaluation session sharing this model (dp/md_session.hpp):
  /// Verlet-skin topology reuse, preallocated kernel workspace, optional
  /// chunk-parallel force evaluation.  Defined in md_session.cpp.
  std::unique_ptr<MdSession> make_md_session() const;
  std::unique_ptr<MdSession> make_md_session(
      const md::SessionOptions& options) const;

  /// The shared model handle (session construction, serving caches).
  std::shared_ptr<const DeepPotModel> share_model() const { return model_; }

 private:
  struct EvalScratch {
    FrameGeometry geometry;
    FastWorkspace workspace;
  };

  std::shared_ptr<const DeepPotModel> model_;
  FastGraph graph_;
  // unique_ptr keeps the Potential movable (ThreadScratch pins itself).
  std::unique_ptr<hpc::ThreadScratch<EvalScratch>> scratch_;
};

}  // namespace dpho::dp
