// Persistent NNP evaluation session: the zero-allocation MD hot path over a
// trained DeepPot-SE model.
//
// Potential::evaluate() rebuilds topology and geometry from scratch every
// call -- right for scattered training frames, wasteful for MD where step
// t+1's neighborhood is step t's plus a skin.  MdSession keeps a Verlet-skin
// candidate skeleton and all kernel workspace alive across steps:
//
//   * topology (a md::VerletList at rcut + skin) is rebuilt only on skin
//     triggers; between rebuilds each step refreshes every chunk's
//     dp::FrameGeometry (the kernels' one pair layout, filled by the same
//     FrameGeometry::store_pair as training frames) in place from the stale
//     pair identities;
//   * the force kernel is the same math as dp::FastGraph's primal pass
//     (embedding forward -> T contraction -> descriptor -> fitting forward/
//     reverse -> embedding reverse + force assembly), restructured over
//     contiguous center-atom chunks so it parallelizes over a ThreadPool;
//   * embedding and fitting nets run in fixed-size recompute tiles, so the
//     MlpBatchCache footprint is tile-bounded instead of growing with the
//     pair count (131k-atom boxes have ~10M candidate pairs).
//
// Determinism contract (repo-wide): the chunk partition and all loop orders
// are pure functions of (model, options, N) -- never of the thread count.
// Each chunk scatters force adjoints into its own full-3N buffer; buffers
// are combined serially in chunk order.  Candidate rows are sorted (center,
// neighbor id) ascending, so a stale-skin walk visits pairs in exactly the
// order a fresh rebuild would: trajectories are bit-identical across thread
// counts AND across skin settings.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dp/fast_graph.hpp"
#include "dp/model.hpp"
#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "md/session.hpp"
#include "md/system.hpp"
#include "nn/mlp_kernels.hpp"

namespace dpho::dp {

/// md::PotentialSession over a DeepPot-SE model.  Bound to the model's atom
/// count/types and, after the first compute(), to one box length.
class MdSession final : public md::PotentialSession {
 public:
  /// Shares ownership of `model`; `options.pool` (if any) is borrowed and
  /// must outlive the session.
  explicit MdSession(std::shared_ptr<const DeepPotModel> model,
                     const md::SessionOptions& options = {});

  double compute(const md::SystemState& state,
                 std::span<md::Vec3> forces) override;
  double cutoff() const override;
  double skin() const override { return skin_; }
  std::size_t steps() const override { return steps_; }
  std::size_t neighbor_rebuilds() const override;

  std::size_t num_chunks() const { return num_chunks_; }
  /// Live (r < rcut) pairs of the last compute(), summed over chunks.
  std::size_t last_live_pairs() const { return last_live_pairs_; }

 private:
  static constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;
  /// Rows per recompute tile for the embedding and fitting nets: bounds the
  /// per-chunk MlpBatchCache footprint independently of the pair count.
  static constexpr std::size_t kTileRows = 4096;

  struct Chunk {
    // Live pairs of this chunk's centers (net-major, refreshed in place each
    // step).  Arrays are sized to the candidate count at skeleton rebuilds;
    // net_offsets tracks the live prefix actually filled this step.
    FrameGeometry geometry;

    // Per-atom T blocks of this chunk's atoms (chunk-local, m1 x 4 each).
    std::vector<double> t, t_bar;

    // Fitting batches: chunk atoms grouped by species, ascending atom order.
    struct FitSlot {
      std::vector<double> x, x_bar;  // rows x (m1 * m2)
    };
    std::array<FitSlot, md::kNumSpecies> fit;

    // Tile workspace (shared by embedding and fitting sweeps).
    std::vector<double> tile_x, tile_x_bar, tile_out_bar, tile_ones;
    nn::MlpBatchCache tile_cache;

    // Full-3N coordinate adjoints from this chunk's centers.
    std::vector<double> coord_bar;
    double energy = 0.0;
  };

  void initialize(const md::SystemState& state);
  void rebuild_skeleton(const md::NeighborList& list);
  void refresh_chunk(std::size_t c, const md::SystemState& state);
  void eval_chunk(std::size_t c, const md::SystemState& state);

  std::shared_ptr<const DeepPotModel> model_;
  md::SessionOptions options_;
  double skin_ = 0.0;
  md::Box box_{1.0};
  std::size_t num_atoms_ = 0;
  bool initialized_ = false;
  std::optional<md::VerletList> verlet_;
  std::size_t seen_rebuilds_ = 0;
  std::size_t steps_ = 0;
  std::size_t last_live_pairs_ = 0;

  std::size_t m1_ = 0;
  std::size_t m2_ = 0;

  // Fixed chunk partition and per-chunk species grouping (functions of the
  // model and options only).
  std::size_t num_chunks_ = 1;
  std::vector<std::size_t> chunk_begin_;
  std::vector<Chunk> chunks_;
  // Per chunk: chunk-local atom ids grouped by species (ascending), offsets,
  // and the chunk-local atom -> batch-row map.
  std::vector<std::vector<std::uint32_t>> species_atoms_;
  std::vector<std::array<std::uint32_t, md::kNumSpecies + 1>> species_off_;
  std::vector<std::vector<std::uint32_t>> atom_slot_;

  // Candidate skeleton: per (chunk, net) buckets of packed (center << 32 | j)
  // pairs, each bucket sorted ascending.  Rebuilt on Verlet triggers.
  std::vector<std::size_t> cand_off_;  // num_chunks_ * kNets + 1
  std::vector<std::size_t> cand_cursor_;
  std::vector<std::uint64_t> cand_;
};

}  // namespace dpho::dp
