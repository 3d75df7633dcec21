// Persistent NNP evaluation session: the zero-allocation MD hot path over a
// trained DeepPot-SE model.
//
// Potential::evaluate() rebuilds topology and geometry from scratch every
// call -- right for scattered training frames, wasteful for MD where step
// t+1's neighborhood is step t's plus a skin.  MdSession keeps a Verlet-skin
// candidate skeleton and all kernel workspace alive across steps; the model
// math is all dp::FastGraph's:
//
//   * topology (a md::VerletList at rcut + skin) is rebuilt only on skin
//     triggers; between rebuilds each step refreshes every tile's
//     dp::FrameGeometry (the kernels' one pair layout, filled by the same
//     FrameGeometry::store_pair as training frames) in place from the stale
//     pair identities;
//   * each chunk of the fixed partition splits into tiles of at most
//     kTileAtoms whole atoms, and each tile is one FastGraph::accumulate_range
//     call, so every embedding net runs forward once per step and the
//     workspace is bounded by the tile, not by N;
//   * chunks run in W = min(chunks, busy threads) lanes; lane l evaluates
//     chunks l, l + W, ... with its own FastWorkspace, which therefore always
//     sees the same tiles and stays allocation-free once warm.
//
// Determinism contract (repo-wide): the chunk and tile partitions and all
// loop orders are pure functions of (model, options, N) -- never of the
// thread count or the lane that runs a chunk.  Each chunk runs its tiles in
// order into its own full-3N adjoint buffer; buffers are combined serially
// in chunk order.  Candidate rows are sorted (center, neighbor id)
// ascending, so a stale-skin walk visits pairs in exactly the order a fresh
// rebuild would: trajectories are bit-identical across thread counts AND
// across skin settings.
#pragma once

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

namespace dpho::dp {

/// md::PotentialSession over a DeepPot-SE model.  Bound to the model's atom
/// count/types and, after the first compute(), to one box length.
class MdSession final : public md::PotentialSession {
 public:
  /// Most atoms in one tile.  A chunk of n_c atoms splits into
  /// ceil(n_c / kTileAtoms) near-equal tiles, a function of N alone.
  static constexpr std::size_t kTileAtoms = 256;

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
  std::size_t num_tiles() const { return tiles_.size(); }
  /// Live (r < rcut) pairs of the last compute(), summed over tiles.
  std::size_t last_live_pairs() const { return last_live_pairs_; }

 private:
  static constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;

  struct Chunk {
    std::size_t first_tile = 0;
    std::size_t end_tile = 0;
    std::vector<double> coord_bar;  // full-3N dE/dx from this chunk's centers
    double energy = 0.0;
  };

  void initialize(const md::SystemState& state);
  void rebuild_skeleton(const md::NeighborList& list);
  void refresh_tile(std::size_t t, const md::SystemState& state);
  void eval_chunk(std::size_t c, const md::SystemState& state,
                  FastWorkspace& workspace);

  std::shared_ptr<const DeepPotModel> model_;
  FastGraph graph_;
  md::SessionOptions options_;
  double skin_ = 0.0;
  md::Box box_{1.0};
  std::size_t num_atoms_ = 0;
  bool initialized_ = false;
  std::optional<md::VerletList> verlet_;
  std::size_t seen_rebuilds_ = 0;
  std::size_t steps_ = 0;
  std::size_t last_live_pairs_ = 0;

  // Fixed chunk and tile partitions (functions of N and the options only).
  std::size_t num_chunks_ = 1;
  std::vector<Chunk> chunks_;
  std::vector<FrameGeometry> tiles_;    // one center range each
  std::vector<FastWorkspace> lanes_;    // one per busy thread

  // Candidate skeleton: per (tile, net) buckets of packed (center << 32 | j)
  // pairs, each bucket sorted ascending.  Rebuilt on Verlet triggers.
  std::vector<std::size_t> cand_off_;  // tiles * kNets + 1
  std::vector<std::size_t> cand_cursor_;
  std::vector<std::uint64_t> cand_;
};

}  // namespace dpho::dp
