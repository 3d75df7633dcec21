// Neighbor search: linked-cell lists with an exact-scan fallback.
//
// Both the classical reference potential and the DeepPot-SE descriptor need
// "all neighbors of atom i within a radial cutoff".  The cell list is O(N)
// for boxes at least three cells wide; smaller boxes (like the paper's
// 17.84 Angstrom box with an 8+ Angstrom cutoff) automatically fall back to
// the O(N^2) exact scan, which is still cheap at 160 atoms.
//
// Storage is CSR of 4-byte atom ids (counts -> prefix-sum offsets -> one
// flat id array, the lgrtk/CabanaMD layout): the whole topology is a few
// allocations and per-atom iteration is a contiguous streaming read.  Rows
// hold ids only; a caller that needs a pair's displacement recomputes it
// from the positions, as box.displacement(r_i, r_j) for j > i and
// -box.displacement(r_j, r_i) for j < i, which are the bytes a stored
// displacement taken once from the lower id would have.  Rows are canonical
// by construction: ascending neighbor id, split into the j < i head and the
// j > i tail.  Pairs are numbered in tail order (row by row, ascending i),
// and both entries of a pair carry its number, so a half-list pass over the
// tails can store per-pair results that a full-list walk then reads.  Both
// paths share one row fill, so the cell list equals the exact scan byte for
// byte and the MD sessions walk rows in place.  The cell scan first rejects
// candidates on wrapped coordinates shifted by their stencil cell's
// periodic image, with a margin that covers rounding, and runs the exact
// minimum-image test only on the survivors.  The fill runs in fixed atom
// blocks on an optional borrowed thread pool that never changes the
// result.  `build()` reuses every internal buffer, so a warmed
// list rebuilds without heap traffic -- the property the MD sessions'
// zero-allocation contract rests on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "md/box.hpp"
#include "md/system.hpp"

namespace dpho::hpc {
class ThreadPool;
}

namespace dpho::md {

/// Which enumeration a NeighborList build uses.  kAuto picks cells when the
/// box is at least three cells wide (O(N)) and the exact O(N^2) scan
/// otherwise; the explicit modes exist for the bench's scaling curves and
/// for tests pinning one path.
enum class NeighborBuild { kAuto, kBruteForce, kCells };

/// Full per-atom neighbor lists (i's list contains j and j's contains i),
/// stored as one flat CSR array of atom ids indexed by per-atom offsets.
/// Each row is in ascending neighbor id.
class NeighborList {
 public:
  /// Empty list; call build() before use.
  NeighborList() = default;

  /// Builds lists for all atoms within `cutoff`; throws ValueError when the
  /// cutoff exceeds half the box edge or a position is not finite.
  NeighborList(const Box& box, const std::vector<Vec3>& positions, double cutoff,
               NeighborBuild mode = NeighborBuild::kAuto,
               hpc::ThreadPool* pool = nullptr);

  /// Rebuilds in place, reusing all internal storage (grow-only capacity).
  /// `pool` (borrowed, may be null) only changes the wall time: the rows
  /// are the same bytes at any thread count and in either mode.  Throws
  /// ValueError for an invalid cutoff, for a non-finite position (naming
  /// the atom, before any coordinate is binned), or for mode kCells when the
  /// box is under three cells wide.
  void build(const Box& box, const std::vector<Vec3>& positions, double cutoff,
             NeighborBuild mode = NeighborBuild::kAuto,
             hpc::ThreadPool* pool = nullptr);

  /// Row i: its neighbors' ids, ascending.  Entry k of the row is flat slot
  /// row_begin(i) + k.
  std::span<const std::uint32_t> neighbors_of(std::size_t i) const {
    return std::span<const std::uint32_t>(flat_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  std::size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  double cutoff() const { return cutoff_; }

  /// Flat slot range of row i, and the first slot of its j > i tail.
  std::size_t row_begin(std::size_t i) const { return offsets_[i]; }
  std::size_t row_end(std::size_t i) const { return offsets_[i + 1]; }
  std::size_t upper_begin(std::size_t i) const {
    return offsets_[i + 1] - upper_count_[i];
  }
  /// All rows back to back (the flat id array), and for each slot its
  /// pair's number: the tail entries count 0, 1, 2, ... in slot order, and
  /// a j < i entry carries the number of the same pair's tail entry in row j.
  std::span<const std::uint32_t> flat() const { return flat_; }
  std::span<const std::uint32_t> pair_ids() const { return pair_; }
  std::size_t num_pairs() const { return flat_.size() / 2; }

  /// Mean neighbor count, a load metric used by the benches.
  double mean_neighbors() const;

  /// True when the cell-list path (rather than the exact scan) was used.
  bool used_cells() const { return used_cells_; }

 private:
  /// One fixed block of kBlockAtoms rows: their j > i entries, ascending j
  /// per row, each entry's rank among the j < i entries of row j, and the
  /// number of the block's first pair.
  struct Block {
    std::vector<std::uint32_t> upper;
    std::vector<std::uint32_t> rank;
    std::size_t first_pair = 0;
  };

  /// Bins atoms by cell (ascending id per bin, with their wrapped
  /// positions) and lists each cell's stencil and its image shifts.
  void bin_atoms(const Box& box, const std::vector<Vec3>& positions,
                 std::size_t cells);
  void fill_upper_block(std::size_t b, const Box& box,
                        const std::vector<Vec3>& positions);
  /// Writes block b's rows (j > i part), their mirrored j < i entries and
  /// both entries' pair numbers.
  void emit_block(std::size_t b);

  double cutoff_ = 0.0;
  bool used_cells_ = false;
  std::vector<std::size_t> offsets_;     // num_atoms + 1
  std::vector<std::uint32_t> flat_;      // offsets_.back() neighbor ids
  std::vector<std::uint32_t> pair_;      // per slot: its pair's number
  std::vector<std::size_t> upper_count_;  // per atom: its row's j > i entries

  // Rebuild scratch, reused across build() calls (grow-only).  One cell
  // holding every atom is the exact scan.
  std::vector<std::size_t> bin_offsets_;  // CSR over cells
  std::vector<std::size_t> bin_cursor_;
  std::vector<std::uint32_t> bin_atoms_;
  std::vector<Vec3> bin_wrapped_;  // wrapped position of each bin entry
  std::vector<std::size_t> atom_cell_;
  std::vector<std::size_t> stencil_;  // stencil_width_ cells per cell
  std::vector<Vec3> stencil_image_;   // each entry's image shift, in box lengths
  std::size_t stencil_width_ = 1;
  // The prefilter's squared reach (cutoff plus rounding margin); infinite
  // when the grid is too coarse for a stencil cell to hold one image only.
  double filter_reach_sq_ = 0.0;
  std::vector<Block> blocks_;
};

/// Verlet list: a NeighborList built at cutoff + skin, reused across MD steps
/// until any atom has moved more than skin/2 (after which pairs could have
/// entered the true cutoff unseen).  Callers filter pairs by the true cutoff
/// themselves from current positions: only the pair identities are
/// guaranteed complete between rebuilds.  A non-finite position always
/// triggers a rebuild, which throws.
class VerletList {
 public:
  /// `pool` (borrowed, may be null) builds the list; see NeighborList.
  VerletList(const Box& box, double cutoff, double skin,
             NeighborBuild mode = NeighborBuild::kAuto,
             hpc::ThreadPool* pool = nullptr);

  /// Returns the current pair list, rebuilding in place (no allocation once
  /// warmed) if any atom moved > skin/2 since the last rebuild.
  const NeighborList& update(const std::vector<Vec3>& positions);

  const Box& box() const { return box_; }
  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  std::size_t rebuild_count() const { return rebuilds_; }

 private:
  bool needs_rebuild(const std::vector<Vec3>& positions) const;

  Box box_;
  double cutoff_;
  double skin_;
  NeighborBuild mode_;
  hpc::ThreadPool* pool_;
  std::size_t rebuilds_ = 0;
  std::vector<Vec3> reference_positions_;
  bool built_ = false;
  NeighborList list_;
};

}  // namespace dpho::md
