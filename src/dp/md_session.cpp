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

}  // namespace

MdSession::MdSession(std::shared_ptr<const DeepPotModel> model,
                     const md::SessionOptions& options)
    : model_(std::move(model)), options_(options) {
  if (!model_) throw util::ValueError("md session needs a model");
  if (options.skin < 0.0) throw util::ValueError("session skin must be >= 0");
  m1_ = model_->spec().m1();
  m2_ = model_->spec().m2();
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
  chunk_begin_ = md::make_chunk_partition(num_atoms_, options_);
  num_chunks_ = chunk_begin_.size() - 1;

  const std::size_t dwidth = m1_ * m2_;
  const std::vector<md::Species>& types = model_->types();
  chunks_.resize(num_chunks_);
  species_atoms_.assign(num_chunks_, {});
  species_off_.assign(num_chunks_, {});
  atom_slot_.assign(num_chunks_, {});
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    const std::size_t lo = chunk_begin_[c];
    const std::size_t chunk_n = chunk_begin_[c + 1] - lo;
    // Chunk atoms grouped by species in ascending atom order: the fitting
    // nets see one contiguous batch per species.
    auto& off = species_off_[c];
    off.fill(0);
    for (std::size_t li = 0; li < chunk_n; ++li) {
      ++off[static_cast<std::size_t>(types[lo + li]) + 1];
    }
    for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) off[sp + 1] += off[sp];
    species_atoms_[c].resize(chunk_n);
    atom_slot_[c].resize(chunk_n);
    std::array<std::uint32_t, md::kNumSpecies> cursor;
    std::copy_n(off.begin(), md::kNumSpecies, cursor.begin());
    for (std::size_t li = 0; li < chunk_n; ++li) {
      const auto sp = static_cast<std::size_t>(types[lo + li]);
      const std::uint32_t pos = cursor[sp]++;
      species_atoms_[c][pos] = static_cast<std::uint32_t>(li);
      atom_slot_[c][li] = pos - off[sp];
    }

    Chunk& ch = chunks_[c];
    ch.geometry.num_atoms = num_atoms_;
    ch.geometry.net_offsets.assign(kNets + 1, 0);
    ch.t.resize(chunk_n * m1_ * 4);
    ch.t_bar.resize(chunk_n * m1_ * 4);
    for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
      const std::size_t rows = off[sp + 1] - off[sp];
      ch.fit[sp].x.resize(rows * dwidth);
      ch.fit[sp].x_bar.resize(rows * dwidth);
    }
    ch.coord_bar.resize(3 * num_atoms_);
    ch.tile_x.reserve(kTileRows);
    ch.tile_x_bar.reserve(kTileRows);
    ch.tile_out_bar.reserve(kTileRows * m1_);
    ch.tile_ones.reserve(kTileRows);
  }
  initialized_ = true;
}

void MdSession::rebuild_skeleton(const md::NeighborList& list) {
  const obs::ScopedTimer timer(rebuild_seconds());
  rebuilds_counter().add(1);
  const std::vector<md::Species>& types = model_->types();

  cand_off_.assign(num_chunks_ * kNets + 1, 0);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
      for (const md::Neighbor& nb : list.neighbors_of(i)) {
        const std::size_t e =
            DeepPotModel::pair_index(types[i], types[nb.index]);
        ++cand_off_[c * kNets + e + 1];
      }
    }
  }
  for (std::size_t b = 0; b < num_chunks_ * kNets; ++b) {
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
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    for (std::size_t i = chunk_begin_[c]; i < chunk_begin_[c + 1]; ++i) {
      for (const md::Neighbor& nb : list.neighbors_of(i)) {
        const std::size_t e =
            DeepPotModel::pair_index(types[i], types[nb.index]);
        cand_[cand_cursor_[c * kNets + e]++] =
            (std::uint64_t{i} << 32) | static_cast<std::uint32_t>(nb.index);
      }
    }
  }
  // Size each chunk's live-pair arrays to its candidate total (upper bound
  // of the live count; grow-only, with headroom).
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    chunks_[c].geometry.resize_pairs(
        cand_off_[(c + 1) * kNets] - cand_off_[c * kNets], /*headroom=*/true);
  }
}

void MdSession::refresh_chunk(std::size_t c, const md::SystemState& state) {
  FrameGeometry& geometry = chunks_[c].geometry;
  const std::vector<md::Vec3>& pos = state.positions;
  const SwitchingFunction& switching = model_->switching();
  std::uint32_t cursor = 0;
  for (std::size_t e = 0; e < kNets; ++e) {
    const std::size_t bucket = c * kNets + e;
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

void MdSession::eval_chunk(std::size_t c, const md::SystemState& state) {
  refresh_chunk(c, state);
  Chunk& ch = chunks_[c];
  const FrameGeometry& geo = ch.geometry;
  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t lo = chunk_begin_[c];
  const std::size_t chunk_n = chunk_begin_[c + 1] - lo;
  const double nu = model.sel_norm();
  const std::size_t dwidth = m1_ * m2_;

  // Embedding forward (in recompute tiles) + T contraction:
  // T_i[m][c] = nu * sum_j g_j[m] R_j[c].
  ch.t.assign(ch.t.size(), 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t begin = geo.net_offsets[net];
    const std::size_t total = geo.net_offsets[net + 1] - begin;
    for (std::size_t tile = 0; tile < total; tile += kTileRows) {
      const std::size_t rows = std::min(kTileRows, total - tile);
      const std::size_t base = begin + tile;
      ch.tile_x.resize(rows);
      for (std::size_t p = 0; p < rows; ++p) ch.tile_x[p] = geo.s[base + p];
      nn::mlp_forward_batch(model.embedding_net(net), ch.tile_x, rows,
                            ch.tile_cache, nn::Curvature::kNone);
      const std::span<const double> g_all = ch.tile_cache.out();
      for (std::size_t p = 0; p < rows; ++p) {
        const std::size_t idx = base + p;
        const double s = geo.s[idx];
        const double row4[4] = {s, s * geo.ux[idx], s * geo.uy[idx],
                                s * geo.uz[idx]};
        const double* g = g_all.data() + p * m1_;
        double* tblock = ch.t.data() + (geo.center[idx] - lo) * m1_ * 4;
        for (std::size_t m = 0; m < m1_; ++m) {
          const double gm = nu * g[m];
          for (std::size_t k = 0; k < 4; ++k) tblock[m * 4 + k] += gm * row4[k];
        }
      }
    }
  }

  // Descriptor D_i[a][b] = sum_c T[a][c] T[b][c] into the fitting rows.
  for (std::size_t li = 0; li < chunk_n; ++li) {
    const auto sp = static_cast<std::size_t>(types[lo + li]);
    double* dst = ch.fit[sp].x.data() + atom_slot_[c][li] * dwidth;
    const double* tblock = ch.t.data() + li * m1_ * 4;
    for (std::size_t a = 0; a < m1_; ++a) {
      for (std::size_t b = 0; b < m2_; ++b) {
        double sum = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          sum += tblock[a * 4 + k] * tblock[b * 4 + k];
        }
        dst[a * m2_ + b] = sum;
      }
    }
  }

  // Fitting forward + reverse in tiles; the backward immediately follows the
  // forward of the same tile so the cache footprint stays tile-bounded.
  // Energy accumulates species-major, batch-row ascending (fixed order).
  double energy =
      static_cast<double>(chunk_n) * model.energy_bias_per_atom();
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t rows_total = species_off_[c][sp + 1] - species_off_[c][sp];
    for (std::size_t tile = 0; tile < rows_total; tile += kTileRows) {
      const std::size_t rows = std::min(kTileRows, rows_total - tile);
      const std::span<const double> x(ch.fit[sp].x.data() + tile * dwidth,
                                      rows * dwidth);
      nn::mlp_forward_batch(model.fitting_net(sp), x, rows, ch.tile_cache,
                            nn::Curvature::kNone);
      const std::span<const double> out = ch.tile_cache.out();
      for (std::size_t row = 0; row < rows; ++row) energy += out[row];
      ch.tile_ones.assign(rows, 1.0);
      const std::span<double> x_bar(ch.fit[sp].x_bar.data() + tile * dwidth,
                                    rows * dwidth);
      nn::mlp_backward_batch(model.fitting_net(sp), x, rows, ch.tile_cache,
                             ch.tile_ones, x_bar, {});
    }
  }
  ch.energy = energy;

  // Descriptor reverse: Tbar[p][c] = sum_b Dbar[p][b] T[b][c]
  //                               + [p < m2] sum_a Dbar[a][p] T[a][c].
  for (std::size_t li = 0; li < chunk_n; ++li) {
    const auto sp = static_cast<std::size_t>(types[lo + li]);
    const double* dbar = ch.fit[sp].x_bar.data() + atom_slot_[c][li] * dwidth;
    const double* tblock = ch.t.data() + li * m1_ * 4;
    double* tbar = ch.t_bar.data() + li * m1_ * 4;
    for (std::size_t p = 0; p < m1_; ++p) {
      for (std::size_t k = 0; k < 4; ++k) {
        double acc = 0.0;
        for (std::size_t b = 0; b < m2_; ++b) {
          acc += dbar[p * m2_ + b] * tblock[b * 4 + k];
        }
        if (p < m2_) {
          for (std::size_t a = 0; a < m1_; ++a) {
            acc += dbar[a * m2_ + p] * tblock[a * 4 + k];
          }
        }
        tbar[p * 4 + k] = acc;
      }
    }
  }

  // Embedding reverse (recomputed forward per tile) + force assembly into
  // this chunk's full-3N adjoint buffer.  Per pair:
  //   gbar[m] = nu * sum_c Tbar[m][c] R[c]
  //   Rbar[c] = nu * sum_m Tbar[m][c] g[m]
  //   sbar    = sbar_embed + Rbar[0] + sum_k Rbar[k+1] u[k]
  //   ubar_k  = s Rbar[k+1]
  //   dbar    = (ubar - (ubar.u) u)/r + sbar s'(r) u
  // with dbar flowing +into atom j and -into the center atom.
  std::fill(ch.coord_bar.begin(), ch.coord_bar.end(), 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t begin = geo.net_offsets[net];
    const std::size_t total = geo.net_offsets[net + 1] - begin;
    for (std::size_t tile = 0; tile < total; tile += kTileRows) {
      const std::size_t rows = std::min(kTileRows, total - tile);
      const std::size_t base = begin + tile;
      ch.tile_x.resize(rows);
      for (std::size_t p = 0; p < rows; ++p) ch.tile_x[p] = geo.s[base + p];
      nn::mlp_forward_batch(model.embedding_net(net), ch.tile_x, rows,
                            ch.tile_cache, nn::Curvature::kNone);
      const std::span<const double> g_all = ch.tile_cache.out();
      ch.tile_out_bar.resize(rows * m1_);
      for (std::size_t p = 0; p < rows; ++p) {
        const std::size_t idx = base + p;
        const double s = geo.s[idx];
        const double row4[4] = {s, s * geo.ux[idx], s * geo.uy[idx],
                                s * geo.uz[idx]};
        const double* tbar = ch.t_bar.data() + (geo.center[idx] - lo) * m1_ * 4;
        double* gbar = ch.tile_out_bar.data() + p * m1_;
        for (std::size_t m = 0; m < m1_; ++m) {
          double acc = 0.0;
          for (std::size_t k = 0; k < 4; ++k) acc += tbar[m * 4 + k] * row4[k];
          gbar[m] = nu * acc;
        }
      }
      ch.tile_x_bar.resize(rows);
      nn::mlp_backward_batch(model.embedding_net(net), ch.tile_x, rows,
                             ch.tile_cache, ch.tile_out_bar, ch.tile_x_bar, {});
      for (std::size_t p = 0; p < rows; ++p) {
        const std::size_t idx = base + p;
        const double u[3] = {geo.ux[idx], geo.uy[idx], geo.uz[idx]};
        const double* tbar = ch.t_bar.data() + (geo.center[idx] - lo) * m1_ * 4;
        const double* g = g_all.data() + p * m1_;
        double rbar[4];
        for (std::size_t k = 0; k < 4; ++k) {
          double acc = 0.0;
          for (std::size_t m = 0; m < m1_; ++m) acc += tbar[m * 4 + k] * g[m];
          rbar[k] = nu * acc;
        }
        const double sbar = ch.tile_x_bar[p] + rbar[0] + rbar[1] * u[0] +
                            rbar[2] * u[1] + rbar[3] * u[2];
        const double s = geo.s[idx];
        const double ubar[3] = {s * rbar[1], s * rbar[2], s * rbar[3]};
        const double ubar_dot_u =
            ubar[0] * u[0] + ubar[1] * u[1] + ubar[2] * u[2];
        for (std::size_t k = 0; k < 3; ++k) {
          const double dbar = (ubar[k] - ubar_dot_u * u[k]) / geo.r[idx] +
                              sbar * geo.ds_dr[idx] * u[k];
          ch.coord_bar[3 * geo.j[idx] + k] += dbar;
          ch.coord_bar[3 * geo.center[idx] + k] -= dbar;
        }
      }
    }
  }
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

  struct DispatchCtx {
    MdSession* self;
    const md::SystemState* state;
  } ctx{this, &state};
  if (options_.pool != nullptr && num_chunks_ > 1) {
    options_.pool->parallel_for_static(
        num_chunks_,
        [](void* raw, std::size_t c) {
          auto* d = static_cast<DispatchCtx*>(raw);
          d->self->eval_chunk(c, *d->state);
        },
        &ctx);
  } else {
    for (std::size_t c = 0; c < num_chunks_; ++c) eval_chunk(c, state);
  }

  // Fixed-order reduction: energies and force adjoints combine serially in
  // chunk order, independent of which thread ran which chunk.
  double energy = 0.0;
  std::size_t live_pairs = 0;
  std::fill(forces.begin(), forces.end(), md::Vec3{0.0, 0.0, 0.0});
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    const Chunk& ch = chunks_[c];
    energy += ch.energy;
    live_pairs += ch.geometry.size();
    const double* cb = ch.coord_bar.data();
    for (std::size_t i = 0; i < num_atoms_; ++i) {
      forces[i][0] -= cb[3 * i];
      forces[i][1] -= cb[3 * i + 1];
      forces[i][2] -= cb[3 * i + 2];
    }
  }
  last_live_pairs_ = live_pairs;
  ++steps_;
  steps_counter().add(1);
  pairs_counter().add(static_cast<std::int64_t>(live_pairs));
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
