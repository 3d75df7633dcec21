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
  initialized_ = true;
}

void ReferenceSession::pair_chunk(std::size_t c, const SystemState& state) {
  const double rc = potential_.cutoff();
  const double rc_sq = rc * rc;
  const std::span<const std::uint32_t> ids = list_->flat();
  const std::span<const std::uint32_t> pair_ids = list_->pair_ids();
  for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
    const Vec3 ri = state.positions[i];
    const Species si = state.types[i];
    const std::size_t row_end = list_->row_end(i);
    for (std::size_t k = list_->upper_begin(i); k < row_end; ++k) {
      const std::size_t j = ids[k];
      PairTerm& term = terms_[pair_ids[k]];
      const Vec3 d = box_.displacement(ri, state.positions[j]);
      const double dist_sq = dot(d, d);
      if (dist_sq >= rc_sq || dist_sq == 0.0) {
        term = PairTerm{};  // adds exact zeros, which change no sum
        continue;
      }
      const double r = std::sqrt(dist_sq);
      const PairEnergyForce pair =
          potential_.pair_energy_force(si, state.types[j], r);
      // Each center adds half the pair energy (exact: *0.5 is a power of
      // two) and the full force on itself.
      term = PairTerm{d * (-pair.force / r), 0.5 * pair.energy};
    }
  }
}

void ReferenceSession::force_chunk(std::size_t c, std::span<Vec3> forces) {
  const std::span<const std::uint32_t> pair_ids = list_->pair_ids();
  double energy = 0.0;
  for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
    Vec3 f{0.0, 0.0, 0.0};
    const std::size_t upper = list_->upper_begin(i);
    const std::size_t row_end = list_->row_end(i);
    // A j < i entry's force is the negated force on j: bit for bit the
    // force from this center, up to the sign of a zero term.
    for (std::size_t k = list_->row_begin(i); k < upper; ++k) {
      const PairTerm& term = terms_[pair_ids[k]];
      energy += term.half_energy;
      f = f - term.force;
    }
    for (std::size_t k = upper; k < row_end; ++k) {
      const PairTerm& term = terms_[pair_ids[k]];
      energy += term.half_energy;
      f = f + term.force;
    }
    forces[i] = f;
  }
  chunk_energy_[c] = energy;
}

template <typename Pass>
void ReferenceSession::for_each_chunk(Pass& pass) {
  if (options_.pool == nullptr || num_chunks_ == 1) {
    for (std::size_t c = 0; c < num_chunks_; ++c) pass(c);
    return;
  }
  options_.pool->parallel_for_static(
      num_chunks_, [](void* raw, std::size_t c) { (*static_cast<Pass*>(raw))(c); },
      &pass);
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
  list_ = &verlet_->update(state.positions);
  if (verlet_->rebuild_count() != seen_rebuilds_) {
    rebuilds_counter().add(1);
    const std::size_t pairs = list_->num_pairs();
    if (terms_.capacity() < pairs) {
      // Headroom so later rebuilds (density fluctuations) stay allocation-free.
      terms_.reserve(pairs + pairs / 8 + 64);
    }
    terms_.resize(pairs);
    seen_rebuilds_ = verlet_->rebuild_count();
  }

  // The pair pass writes every term the force pass reads; parallel_for_static
  // returns only when all chunks are done, which is the barrier between them.
  auto pairs = [&](std::size_t c) { pair_chunk(c, state); };
  for_each_chunk(pairs);
  auto force = [&](std::size_t c) { force_chunk(c, forces); };
  for_each_chunk(force);

  // Fixed-order reduction: chunk partials combine serially in chunk order,
  // independent of which thread ran which chunk.
  double energy = 0.0;
  for (const double e : chunk_energy_) energy += e;
  ++steps_;
  steps_counter().add(1);
  return energy;
}

}  // namespace dpho::md
