#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "hpc/thread_pool.hpp"
#include "util/error.hpp"

namespace dpho::md {

namespace {

// Atoms per block of the row fill.  The partition is fixed, so which thread
// fills a block never changes what the block holds.
constexpr std::size_t kBlockAtoms = 128;

constexpr std::size_t kMaxId = std::numeric_limits<std::uint32_t>::max();

/// Runs fn(b) for every block b, on the pool when there is one.
template <typename Fn>
void for_each_block(hpc::ThreadPool* pool, std::size_t blocks, Fn& fn) {
  if (pool == nullptr) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    return;
  }
  pool->parallel_for_static(
      blocks, [](void* ctx, std::size_t b) { (*static_cast<Fn*>(ctx))(b); }, &fn);
}

/// Largest coordinate magnitude; throws ValueError naming the first atom
/// with a non-finite coordinate, before anything casts one to an integer.
double checked_extent(const std::vector<Vec3>& positions) {
  double extent = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (const double x : positions[i]) {
      if (!std::isfinite(x)) {
        throw util::ValueError("neighbor list: atom " + std::to_string(i) +
                               " has a non-finite coordinate");
      }
      extent = std::max(extent, std::abs(x));
    }
  }
  return extent;
}

}  // namespace

NeighborList::NeighborList(const Box& box, const std::vector<Vec3>& positions,
                           double cutoff, NeighborBuild mode,
                           hpc::ThreadPool* pool) {
  build(box, positions, cutoff, mode, pool);
}

void NeighborList::build(const Box& box, const std::vector<Vec3>& positions,
                         double cutoff, NeighborBuild mode,
                         hpc::ThreadPool* pool) {
  // Both guards are written so that a NaN cutoff fails them.
  if (!(cutoff > 0.0)) throw util::ValueError("neighbor cutoff must be positive");
  if (!(cutoff <= box.max_cutoff() + 1e-12)) {
    throw util::ValueError("neighbor cutoff exceeds half the box edge");
  }
  const std::size_t n = positions.size();
  if (n > kMaxId) throw util::ValueError("neighbor list: too many atoms for 4-byte ids");
  const double extent = checked_extent(positions);
  cutoff_ = cutoff;
  // Cells at least one cutoff wide, capped near one atom per cell (but not
  // below the 3 the stencil needs) in floating point, so a tiny cutoff
  // cannot overflow the cast.  Rows do not depend on the grid.
  const double max_cells = std::max(
      3.0, std::ceil(std::cbrt(static_cast<double>(n))));
  const auto cells_per_side =
      static_cast<std::size_t>(std::min(box.length() / cutoff, max_cells));
  bool use_cells = cells_per_side >= 3;
  if (mode == NeighborBuild::kBruteForce) use_cells = false;
  if (mode == NeighborBuild::kCells && !use_cells) {
    throw util::ValueError("cell-list build needs a box >= 3 cells wide");
  }
  used_cells_ = use_cells;
  const std::size_t cells = use_cells ? cells_per_side : 1;
  bin_atoms(box, positions, cells);

  // The prefilter compares wrapped coordinates, which differ from the
  // minimum image by a few ulps of the coordinates' magnitude; `slack`
  // covers that many times over.  It is sound only while a stencil cell
  // holds a single image of each pair within reach, |a| + |d| < L per axis.
  const double slack = 1e-9 * cutoff + 0x1p-40 * (extent + box.length());
  const double cell_size = box.length() / static_cast<double>(cells);
  filter_reach_sq_ = 2.0 * cell_size + cutoff + 4.0 * slack < box.length()
                         ? (cutoff + slack) * (cutoff + slack)
                         : std::numeric_limits<double>::infinity();

  blocks_.resize((n + kBlockAtoms - 1) / kBlockAtoms);
  upper_count_.resize(n);
  auto fill = [&](std::size_t b) { fill_upper_block(b, box, positions); };
  for_each_block(pool, blocks_.size(), fill);

  // Row i is [j < i | j > i], both parts ascending.  Counting the upper
  // entries that name j in ascending i gives each its rank in row j's lower
  // part; then each block writes its own rows and those lower entries.
  offsets_.assign(n + 1, 0);
  std::size_t pairs = 0;
  for (Block& block : blocks_) {
    block.first_pair = pairs;
    pairs += block.upper.size();
    block.rank.resize(block.upper.size());
    for (std::size_t k = 0; k < block.upper.size(); ++k) {
      block.rank[k] = static_cast<std::uint32_t>(offsets_[block.upper[k] + 1]++);
    }
  }
  for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i] + upper_count_[i];
  if (offsets_.back() > kMaxId) {
    offsets_.clear();  // an empty list rather than rows past flat_'s end
    throw util::ValueError("neighbor list: too many pairs for 4-byte slots");
  }
  flat_.resize(offsets_.back());
  pair_.resize(offsets_.back());
  auto emit = [&](std::size_t b) { emit_block(b); };
  for_each_block(pool, blocks_.size(), emit);
}

void NeighborList::bin_atoms(const Box& box, const std::vector<Vec3>& positions,
                             std::size_t cells) {
  const double cell_size = box.length() / static_cast<double>(cells);
  const auto cell_of = [&](const Vec3& w) {
    std::size_t c = 0;
    for (const double x : w) {
      c = c * cells + std::min(static_cast<std::size_t>(x / cell_size), cells - 1);
    }
    return c;
  };
  const std::size_t num_cells = cells * cells * cells;
  atom_cell_.resize(positions.size());
  bin_offsets_.assign(num_cells + 1, 0);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    atom_cell_[i] = cell_of(box.wrap(positions[i]));
    ++bin_offsets_[atom_cell_[i] + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) bin_offsets_[c + 1] += bin_offsets_[c];
  bin_atoms_.resize(positions.size());
  bin_wrapped_.resize(positions.size());
  bin_cursor_.assign(bin_offsets_.begin(), bin_offsets_.end() - 1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::size_t slot = bin_cursor_[atom_cell_[i]]++;
    bin_atoms_[slot] = static_cast<std::uint32_t>(i);
    bin_wrapped_[slot] = box.wrap(positions[i]);
  }

  // The 27 cells around each cell; the exact scan's one cell is its own.
  // A stencil step past either face of the grid reaches the neighbor
  // cell's periodic image, one box length away on that axis.
  const std::size_t reach = cells > 1 ? 1 : 0, side = 2 * reach + 1;
  const auto shift = [&](std::size_t x, std::size_t d) {
    return (x + cells + d - reach) % cells;
  };
  const auto image = [&](std::size_t x, std::size_t d) {
    const std::size_t unwrapped = x + cells + d - reach;
    return unwrapped < cells ? -1.0 : unwrapped >= 2 * cells ? 1.0 : 0.0;
  };
  stencil_width_ = side * side * side;
  if (stencil_.size() == num_cells * stencil_width_) return;  // grid unchanged
  stencil_.clear();
  stencil_image_.clear();
  for (std::size_t c = 0; c < num_cells; ++c) {
    const std::size_t x = c / (cells * cells), y = c / cells % cells, z = c % cells;
    for (std::size_t s = 0; s < stencil_width_; ++s) {
      const std::size_t dx = s / (side * side), dy = s / side % side, dz = s % side;
      stencil_.push_back((shift(x, dx) * cells + shift(y, dy)) * cells + shift(z, dz));
      stencil_image_.push_back(Vec3{image(x, dx), image(y, dy), image(z, dz)});
    }
  }
}

void NeighborList::fill_upper_block(std::size_t b, const Box& box,
                                    const std::vector<Vec3>& positions) {
  // Atom i's candidates are the ids above i in each bin of its stencil.
  // Bins interleave ids, so each row is sorted once it is complete.  A
  // candidate whose wrapped position, taken from its stencil cell's image
  // of i, is out of reach never gets the exact test; the reach's margin
  // makes every pair the exact test accepts pass it.
  const double cutoff_sq = cutoff_ * cutoff_;
  std::vector<std::uint32_t>& out = blocks_[b].upper;
  out.clear();
  const std::size_t end = std::min(positions.size(), (b + 1) * kBlockAtoms);
  for (std::size_t i = b * kBlockAtoms; i < end; ++i) {
    const std::size_t first = out.size();
    const Vec3 ri = positions[i];
    const Vec3 wi = box.wrap(ri);
    const std::size_t stencil = atom_cell_[i] * stencil_width_;
    for (std::size_t s = 0; s < stencil_width_; ++s) {
      const std::size_t cell = stencil_[stencil + s];
      const std::uint32_t* bin = bin_atoms_.data() + bin_offsets_[cell];
      const std::uint32_t* bin_end = bin_atoms_.data() + bin_offsets_[cell + 1];
      const Vec3 origin = wi - stencil_image_[stencil + s] * box.length();
      for (const std::uint32_t* j = std::upper_bound(bin, bin_end, i); j != bin_end; ++j) {
        const Vec3 a = bin_wrapped_[static_cast<std::size_t>(j - bin_atoms_.data())] - origin;
        if (dot(a, a) >= filter_reach_sq_) continue;
        const Vec3 d = box.displacement(ri, positions[*j]);
        const double dist_sq = dot(d, d);
        if (dist_sq >= cutoff_sq || dist_sq == 0.0) continue;
        out.push_back(*j);
      }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
    upper_count_[i] = out.size() - first;
  }
}

void NeighborList::emit_block(std::size_t b) {
  const Block& block = blocks_[b];
  std::size_t k = 0;
  const std::size_t end = std::min(upper_count_.size(), (b + 1) * kBlockAtoms);
  for (std::size_t i = b * kBlockAtoms; i < end; ++i) {
    std::size_t slot = offsets_[i + 1] - upper_count_[i];
    for (const std::size_t row_end = k + upper_count_[i]; k < row_end; ++k, ++slot) {
      const std::uint32_t j = block.upper[k];
      const std::size_t lower = offsets_[j] + block.rank[k];
      flat_[slot] = j;
      flat_[lower] = static_cast<std::uint32_t>(i);
      pair_[slot] = pair_[lower] = static_cast<std::uint32_t>(block.first_pair + k);
    }
  }
}

VerletList::VerletList(const Box& box, double cutoff, double skin,
                       NeighborBuild mode, hpc::ThreadPool* pool)
    : box_(box), cutoff_(cutoff), skin_(skin), mode_(mode), pool_(pool) {
  // Both guards are written so that NaN fails them.
  if (!(skin >= 0.0)) throw util::ValueError("verlet skin must be >= 0");
  if (!(cutoff + skin <= box.max_cutoff() + 1e-12)) {
    throw util::ValueError("verlet cutoff + skin exceeds half the box edge");
  }
}

bool VerletList::needs_rebuild(const std::vector<Vec3>& positions) const {
  if (!built_ || positions.size() != reference_positions_.size()) return true;
  const double threshold_sq = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 d = box_.displacement(reference_positions_[i], positions[i]);
    // Written so that a NaN drift (a non-finite position) rebuilds, and the
    // rebuild rejects the position.
    if (!(dot(d, d) <= threshold_sq)) return true;
  }
  return false;
}

const NeighborList& VerletList::update(const std::vector<Vec3>& positions) {
  if (needs_rebuild(positions)) {
    list_.build(box_, positions, cutoff_ + skin_, mode_, pool_);
    built_ = true;
    // assign() reuses reference_positions_' capacity: no allocation once the
    // atom count is stable.
    reference_positions_.assign(positions.begin(), positions.end());
    ++rebuilds_;
  }
  return list_;
}

double NeighborList::mean_neighbors() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(flat_.size()) / static_cast<double>(size());
}

}  // namespace dpho::md
