#include "md/session.hpp"

#include <algorithm>
#include <cmath>

#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dpho::md {

namespace {

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

}  // namespace

std::vector<std::size_t> make_chunk_partition(std::size_t num_atoms,
                                              const SessionOptions& options) {
  const std::size_t grain = std::max<std::size_t>(1, options.chunk_atoms);
  std::size_t chunks = (num_atoms + grain - 1) / grain;
  chunks = std::clamp<std::size_t>(chunks, 1,
                                   std::max<std::size_t>(1, options.max_chunks));
  std::vector<std::size_t> begin(chunks + 1, 0);
  const std::size_t base = num_atoms / chunks;
  const std::size_t extra = num_atoms % chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    begin[c + 1] = begin[c] + base + (c < extra ? 1 : 0);
  }
  return begin;
}

ReferenceSession::ReferenceSession(const ReferencePotential& potential,
                                   const SessionOptions& options)
    : potential_(potential), options_(options) {
  if (!std::isfinite(options.skin) || options.skin < 0.0) {
    throw util::ValueError("session skin must be finite and >= 0");
  }
}

std::size_t ReferenceSession::neighbor_rebuilds() const {
  return verlet_ ? verlet_->rebuild_count() : 0;
}

void ReferenceSession::initialize(const SystemState& state) {
  num_atoms_ = state.size();
  if (num_atoms_ == 0) throw util::ValueError("session needs >= 1 atom");
  box_ = Box(state.box_length);
  // Clamp the skin so cutoff + skin stays a legal neighbor cutoff; the bare
  // cutoff must fit on its own (VerletList throws otherwise).
  skin_ = std::max(
      0.0, std::min(options_.skin, box_.max_cutoff() - cutoff() - 1e-9));
  verlet_.emplace(box_, potential_.cutoff(), skin_, options_.neighbor_build,
                  options_.pool);
  chunk_begin_ = make_chunk_partition(num_atoms_, options_);
  num_chunks_ = chunk_begin_.size() - 1;
  chunk_energy_.assign(num_chunks_, 0.0);
  skel_offsets_.assign(num_atoms_ + 1, 0);
  initialized_ = true;
}

void ReferenceSession::rebuild_skeleton(const NeighborList& list) {
  const obs::ScopedTimer timer(rebuild_seconds());
  rebuilds_counter().add(1);
  std::size_t total = 0;
  skel_offsets_[0] = 0;
  for (std::size_t i = 0; i < num_atoms_; ++i) {
    total += list.neighbors_of(i).size();
    skel_offsets_[i + 1] = total;
  }
  if (skel_index_.capacity() < total) {
    // Headroom so later rebuilds (density fluctuations) stay allocation-free.
    skel_index_.reserve(total + total / 8 + 64);
  }
  skel_index_.resize(total);
  // NeighborList rows are already in ascending neighbor id, the canonical
  // order that makes a stale-skin walk bitwise-match a fresh rebuild.
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < num_atoms_; ++i) {
    for (const Neighbor& nb : list.neighbors_of(i)) {
      skel_index_[cursor++] = static_cast<std::uint32_t>(nb.index);
    }
  }
}

void ReferenceSession::eval_chunk(std::size_t c, const SystemState& state,
                                  std::span<Vec3> forces) {
  const double rc = potential_.cutoff();
  const double rc_sq = rc * rc;
  double energy = 0.0;
  for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
    const Vec3 ri = state.positions[i];
    const Species si = state.types[i];
    Vec3 f{0.0, 0.0, 0.0};
    const std::size_t row_end = skel_offsets_[i + 1];
    for (std::size_t k = skel_offsets_[i]; k < row_end; ++k) {
      const std::size_t j = skel_index_[k];
      const Vec3 d = box_.displacement(ri, state.positions[j]);
      const double dist_sq = dot(d, d);
      if (dist_sq >= rc_sq || dist_sq == 0.0) continue;
      const double r = std::sqrt(dist_sq);
      const Species sj = state.types[j];
      // Full-neighbor form: each pair is seen from both centers, so each
      // occurrence carries half the pair energy (exact: *0.5 is a power of
      // two) and the full force on this center.
      const PairEnergyForce pair = potential_.pair_energy_force(si, sj, r);
      energy += 0.5 * pair.energy;
      f = f + d * (-pair.force / r);
    }
    forces[i] = f;
  }
  chunk_energy_[c] = energy;
}

double ReferenceSession::compute(const SystemState& state,
                                 std::span<Vec3> forces) {
  const obs::ScopedTimer timer(step_seconds());
  if (!initialized_) initialize(state);
  if (state.size() != num_atoms_ || state.box_length != box_.length()) {
    throw util::ValueError("session is bound to a fixed atom count and box");
  }
  if (forces.size() != num_atoms_) {
    throw util::ValueError("forces span size does not match atom count");
  }
  const NeighborList& list = verlet_->update(state.positions);
  if (verlet_->rebuild_count() != seen_rebuilds_) {
    rebuild_skeleton(list);
    seen_rebuilds_ = verlet_->rebuild_count();
  }

  struct DispatchCtx {
    ReferenceSession* self;
    const SystemState* state;
    Vec3* forces;
  } ctx{this, &state, forces.data()};
  if (options_.pool != nullptr && num_chunks_ > 1) {
    options_.pool->parallel_for_static(
        num_chunks_,
        [](void* raw, std::size_t c) {
          auto* d = static_cast<DispatchCtx*>(raw);
          d->self->eval_chunk(c, *d->state,
                              std::span<Vec3>(d->forces, d->state->size()));
        },
        &ctx);
  } else {
    for (std::size_t c = 0; c < num_chunks_; ++c) eval_chunk(c, state, forces);
  }

  // Fixed-order reduction: chunk partials combine serially in chunk order,
  // independent of which thread ran which chunk.
  double energy = 0.0;
  for (const double e : chunk_energy_) energy += e;
  ++steps_;
  steps_counter().add(1);
  return energy;
}

}  // namespace dpho::md
