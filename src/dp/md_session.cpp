#include "dp/md_session.hpp"

#include <algorithm>
#include <cmath>

#include "dp/potential.hpp"
#include "dp/switching.hpp"
#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dpho::dp {

namespace {

// Same handles the md::ReferenceSession records into: both backends share
// one md.session.* metric family.
obs::Histogram& step_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "md.session.step_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Histogram& rebuild_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "md.session.rebuild_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Counter& steps_counter() {
  static obs::Counter& c = obs::metrics().counter("md.session.steps_total");
  return c;
}

obs::Counter& rebuilds_counter() {
  static obs::Counter& c = obs::metrics().counter("md.session.rebuilds_total");
  return c;
}

obs::Counter& pairs_counter() {
  static obs::Counter& c = obs::metrics().counter("md.session.pairs_total");
  return c;
}

const DeepPotModel& checked(const std::shared_ptr<const DeepPotModel>& model) {
  return model ? *model : throw util::ValueError("md session needs a model");
}

}  // namespace

MdSession::MdSession(std::shared_ptr<const DeepPotModel> model,
                     const md::SessionOptions& options)
    : model_(std::move(model)), graph_(checked(model_)), options_(options) {
  if (!std::isfinite(options.skin) || options.skin < 0.0) {
    throw util::ValueError("session skin must be finite and >= 0");
  }
}

double MdSession::cutoff() const { return model_->spec().descriptor.rcut; }

std::size_t MdSession::neighbor_rebuilds() const {
  return verlet_ ? verlet_->rebuild_count() : 0;
}

void MdSession::initialize(const md::SystemState& state) {
  // The model owns the atom typing (md::Frame carries none); only the count
  // has to line up, exactly like Potential::evaluate.
  if (state.size() != model_->num_atoms()) {
    throw util::ValueError("nnp session: atom count mismatch");
  }
  num_atoms_ = state.size();
  box_ = md::Box(state.box_length);
  skin_ = std::max(
      0.0, std::min(options_.skin, box_.max_cutoff() - cutoff() - 1e-9));
  verlet_.emplace(box_, cutoff(), skin_, options_.neighbor_build, options_.pool);
  const std::vector<std::size_t> chunk_begin =
      md::make_chunk_partition(num_atoms_, options_);
  num_chunks_ = chunk_begin.size() - 1;

  // Each chunk splits into near-equal tiles of whole atoms, in atom order.
  chunks_.resize(num_chunks_);
  tiles_.clear();
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    const std::size_t lo = chunk_begin[c];
    const std::size_t chunk_n = chunk_begin[c + 1] - lo;
    const std::size_t count = (chunk_n + kTileAtoms - 1) / kTileAtoms;
    Chunk& chunk = chunks_[c];
    chunk.first_tile = tiles_.size();
    chunk.end_tile = chunk.first_tile + count;
    chunk.coord_bar.resize(3 * num_atoms_);
    for (std::size_t t = 0; t < count; ++t) {
      FrameGeometry& tile = tiles_.emplace_back();
      tile.num_atoms = num_atoms_;
      tile.first_center = lo + t * chunk_n / count;
      tile.num_centers = lo + (t + 1) * chunk_n / count - tile.first_center;
      tile.net_offsets.assign(kNets + 1, 0);
    }
  }
  // Calling thread plus pool workers: one workspace per busy lane.
  const std::size_t threads = options_.pool ? options_.pool->size() + 1 : 1;
  lanes_.resize(std::min(num_chunks_, threads));
  initialized_ = true;
}

void MdSession::rebuild_skeleton(const md::NeighborList& list) {
  const obs::ScopedTimer timer(rebuild_seconds());
  rebuilds_counter().add(1);
  const std::vector<md::Species>& types = model_->types();
  const std::size_t num_tiles = tiles_.size();

  cand_off_.assign(num_tiles * kNets + 1, 0);
  for (std::size_t t = 0; t < num_tiles; ++t) {
    const FrameGeometry& tile = tiles_[t];
    for (std::size_t i = tile.first_center; i < tile.end_center(); ++i) {
      for (const std::uint32_t j : list.neighbors_of(i)) {
        ++cand_off_[t * kNets + DeepPotModel::pair_index(types[i], types[j]) + 1];
      }
    }
  }
  for (std::size_t b = 0; b < num_tiles * kNets; ++b) {
    cand_off_[b + 1] += cand_off_[b];
  }
  const std::size_t total = cand_off_.back();
  if (cand_.capacity() < total) {
    // Headroom so later rebuilds (density fluctuations) stay allocation-free.
    cand_.reserve(total + total / 8 + 64);
  }
  cand_.resize(total);
  cand_cursor_.assign(cand_off_.begin(), cand_off_.end() - 1);
  // Centers ascend and NeighborList rows are in ascending neighbor id, so
  // each bucket comes out in the canonical (center, neighbor id) order.
  for (std::size_t t = 0; t < num_tiles; ++t) {
    const FrameGeometry& tile = tiles_[t];
    for (std::size_t i = tile.first_center; i < tile.end_center(); ++i) {
      for (const std::uint32_t j : list.neighbors_of(i)) {
        const std::size_t e = DeepPotModel::pair_index(types[i], types[j]);
        cand_[cand_cursor_[t * kNets + e]++] = (std::uint64_t{i} << 32) | j;
      }
    }
  }
  // Size each tile's live-pair arrays to its candidate total (upper bound
  // of the live count; grow-only, with headroom).
  for (std::size_t t = 0; t < num_tiles; ++t) {
    tiles_[t].resize_pairs(cand_off_[(t + 1) * kNets] - cand_off_[t * kNets],
                           /*headroom=*/true);
  }
}

void MdSession::refresh_tile(std::size_t t, const md::SystemState& state) {
  FrameGeometry& geometry = tiles_[t];
  const std::vector<md::Vec3>& pos = state.positions;
  const SwitchingFunction& switching = model_->switching();
  std::uint32_t cursor = 0;
  for (std::size_t e = 0; e < kNets; ++e) {
    const std::size_t bucket = t * kNets + e;
    for (std::size_t k = cand_off_[bucket]; k < cand_off_[bucket + 1]; ++k) {
      const std::uint64_t packed = cand_[k];
      const auto i = static_cast<std::uint32_t>(packed >> 32);
      const auto jj = static_cast<std::uint32_t>(packed & 0xffffffffu);
      if (geometry.store_pair(cursor, i, jj, box_.displacement(pos[i], pos[jj]),
                              switching)) {
        ++cursor;
      }
    }
    geometry.net_offsets[e + 1] = cursor;
  }
}

void MdSession::eval_chunk(std::size_t c, const md::SystemState& state,
                           FastWorkspace& workspace) {
  Chunk& chunk = chunks_[c];
  std::fill(chunk.coord_bar.begin(), chunk.coord_bar.end(), 0.0);
  double energy = 0.0;
  for (std::size_t t = chunk.first_tile; t < chunk.end_tile; ++t) {
    refresh_tile(t, state);
    energy += graph_.accumulate_range(tiles_[t], workspace, chunk.coord_bar);
  }
  chunk.energy = energy;
}

double MdSession::compute(const md::SystemState& state,
                          std::span<md::Vec3> forces) {
  const obs::ScopedTimer timer(step_seconds());
  if (!initialized_) initialize(state);
  if (state.size() != num_atoms_ || state.box_length != box_.length()) {
    throw util::ValueError("session is bound to a fixed atom count and box");
  }
  if (forces.size() != num_atoms_) {
    throw util::ValueError("forces span size does not match atom count");
  }
  const md::NeighborList& list = verlet_->update(state.positions);
  if (verlet_->rebuild_count() != seen_rebuilds_) {
    rebuild_skeleton(list);
    seen_rebuilds_ = verlet_->rebuild_count();
  }

  // Lane l runs chunks l, l + W, ... in order with workspace l.
  struct DispatchCtx {
    MdSession* self;
    const md::SystemState* state;
  } ctx{this, &state};
  const auto run_lane = [](void* raw, std::size_t lane) {
    auto* d = static_cast<DispatchCtx*>(raw);
    MdSession& self = *d->self;
    for (std::size_t c = lane; c < self.num_chunks_; c += self.lanes_.size()) {
      self.eval_chunk(c, *d->state, self.lanes_[lane]);
    }
  };
  if (options_.pool != nullptr && lanes_.size() > 1) {
    options_.pool->parallel_for_static(lanes_.size(), run_lane, &ctx);
  } else {
    run_lane(&ctx, 0);
  }

  // Fixed-order reduction: energies and force adjoints combine serially in
  // chunk order, independent of which thread ran which chunk.
  double energy = 0.0;
  std::fill(forces.begin(), forces.end(), md::Vec3{0.0, 0.0, 0.0});
  for (const Chunk& chunk : chunks_) {
    energy += chunk.energy;
    const double* cb = chunk.coord_bar.data();
    for (std::size_t i = 0; i < num_atoms_; ++i) {
      forces[i][0] -= cb[3 * i];
      forces[i][1] -= cb[3 * i + 1];
      forces[i][2] -= cb[3 * i + 2];
    }
  }
  last_live_pairs_ = 0;
  for (const FrameGeometry& tile : tiles_) last_live_pairs_ += tile.size();
  ++steps_;
  steps_counter().add(1);
  pairs_counter().add(static_cast<std::int64_t>(last_live_pairs_));
  return energy;
}

std::unique_ptr<MdSession> Potential::make_md_session() const {
  return std::make_unique<MdSession>(model_);
}

std::unique_ptr<MdSession> Potential::make_md_session(
    const md::SessionOptions& options) const {
  return std::make_unique<MdSession>(model_, options);
}

}  // namespace dpho::dp
