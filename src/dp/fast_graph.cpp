#include "dp/fast_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace dpho::dp {

namespace {

constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;

// Metric handles are stable for the registry's lifetime, so resolve them once
// instead of taking the registration mutex every frame.
obs::Histogram& primal_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "dp.kernels.primal_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Histogram& tangent_seconds() {
  static obs::Histogram& h = obs::metrics().histogram(
      "dp.kernels.tangent_seconds", obs::BucketLayout::timing_seconds());
  return h;
}

obs::Counter& frames_counter() {
  static obs::Counter& c = obs::metrics().counter("dp.kernels.frames_total");
  return c;
}

obs::Counter& pairs_counter() {
  static obs::Counter& c = obs::metrics().counter("dp.kernels.pairs_total");
  return c;
}

}  // namespace

void build_frame_geometry(const DeepPotModel& model, const md::Frame& frame,
                          const md::NeighborList& list, FrameGeometry& out) {
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = types.size();
  if (frame.positions.size() != n) {
    throw util::ValueError("fast_graph: frame atom count does not match model");
  }
  // A non-finite coordinate would reach every energy and force as NaN.
  for (std::size_t i = 0; i < n; ++i) {
    for (const double x : frame.positions[i]) {
      if (!std::isfinite(x)) {
        throw util::ValueError("fast_graph: atom " + std::to_string(i) +
                               " has a non-finite coordinate");
      }
    }
  }
  if (list.size() != n) {
    throw util::ValueError("fast_graph: neighbor list atom count does not match model");
  }
  const SwitchingFunction& switching = model.switching();
  const double rcut = switching.rcut();
  if (list.cutoff() != rcut) {
    throw util::ValueError("fast_graph: neighbor list cutoff does not match model rcut");
  }
  out.num_atoms = n;
  out.first_center = 0;
  out.num_centers = n;

  // Each pair's displacement is taken once, from its lower id, and negated
  // in the higher id's row: the bytes both rows carried when the list stored
  // them (signed zeros included).  Count pairs per embedding net from the
  // j > i entries, prefix-sum into offsets, then fill row by row.  The count
  // must apply store_pair's exact filter (r < switching.rcut()), and the norm
  // is the same from both ends.
  const md::Box box(frame.box_length);
  const std::span<const std::uint32_t> ids = list.flat();
  const std::span<const std::uint32_t> pair_ids = list.pair_ids();
  std::vector<md::Vec3> pair_displacement(list.num_pairs());
  out.net_offsets.assign(kNets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = list.upper_begin(i); k < list.row_end(i); ++k) {
      const std::uint32_t j = ids[k];
      const md::Vec3 d = box.displacement(frame.positions[i], frame.positions[j]);
      pair_displacement[pair_ids[k]] = d;
      if (md::norm(d) >= rcut) continue;
      ++out.net_offsets[DeepPotModel::pair_index(types[i], types[j]) + 1];
      ++out.net_offsets[DeepPotModel::pair_index(types[j], types[i]) + 1];
    }
  }
  for (std::size_t net = 0; net < kNets; ++net) {
    out.net_offsets[net + 1] += out.net_offsets[net];
  }
  out.resize_pairs(out.net_offsets.back());

  std::array<std::uint32_t, kNets> cursor;
  std::copy_n(out.net_offsets.begin(), kNets, cursor.begin());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = list.row_begin(i); k < list.row_end(i); ++k) {
      const std::uint32_t j = ids[k];
      const md::Vec3& d = pair_displacement[pair_ids[k]];
      const std::size_t net = DeepPotModel::pair_index(types[i], types[j]);
      if (out.store_pair(cursor[net], static_cast<std::uint32_t>(i), j,
                         j > i ? d : md::Vec3{-d[0], -d[1], -d[2]}, switching)) {
        ++cursor[net];
      }
    }
  }
}

FastGraph::FastGraph(const DeepPotModel& model) : model_(&model) {
  m1_ = model.spec().m1();
  m2_ = model.spec().m2();

  // Each fitting net sees its species' atoms as one contiguous batch in atom
  // order; prefix counts per species give every atom's row in it.
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = types.size();
  species_before_.assign((n + 1) * md::kNumSpecies, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = species_before_.begin() +
                     static_cast<std::ptrdiff_t>(i * md::kNumSpecies);
    std::copy_n(row, md::kNumSpecies, row + md::kNumSpecies);
    ++row[md::kNumSpecies + static_cast<std::size_t>(types[i])];
  }

  // Flat parameter offsets in gather_params order: embeddings then fittings.
  embed_param_offset_.resize(kNets);
  std::size_t offset = 0;
  for (std::size_t e = 0; e < kNets; ++e) {
    embed_param_offset_[e] = offset;
    offset += model.embedding_net(e).num_params();
  }
  fit_param_offset_.resize(md::kNumSpecies);
  for (std::size_t f = 0; f < md::kNumSpecies; ++f) {
    fit_param_offset_[f] = offset;
    offset += model.fitting_net(f).num_params();
  }
}

void FastGraph::size_workspace(std::span<const FrameGeometry* const> frames,
                               FastWorkspace& workspace) const {
  const std::size_t n = model_->num_atoms();
  constexpr std::size_t kSp = md::kNumSpecies;
  workspace.embed.resize(kNets);
  workspace.fit.resize(kSp);
  // Fused per-net row totals, and per-frame bases of the T blocks and
  // fitting rows sized from each frame's center range (a whole frame f
  // starts at f * n and f * atoms(sp)).
  workspace.net_counts.assign(kNets, 0);
  workspace.center_base.assign(frames.size() + 1, 0);
  workspace.fit_base.assign((frames.size() + 1) * kSp, 0);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const FrameGeometry* geometry = frames[f];
    if (geometry == nullptr || geometry->num_atoms != n) {
      throw util::ValueError("fast_graph: geometry atom count does not match model");
    }
    if (geometry->first_center > n || geometry->num_centers > n - geometry->first_center) {
      throw util::ValueError("fast_graph: geometry center range exceeds the frame");
    }
    for (std::size_t net = 0; net < kNets; ++net) {
      workspace.net_counts[net] += geometry->net_count(net);
    }
    workspace.center_base[f + 1] = workspace.center_base[f] + geometry->num_centers;
    for (std::size_t sp = 0; sp < kSp; ++sp) {
      workspace.fit_base[(f + 1) * kSp + sp] =
          workspace.fit_base[f * kSp + sp] + species_before(geometry->end_center(), sp) -
          species_before(geometry->first_center, sp);
    }
  }
  // Prefix sums of the net totals: the row space shared by all pair-indexed
  // scratch like u_dot.
  workspace.net_row_offset.assign(kNets + 1, 0);
  for (std::size_t net = 0; net < kNets; ++net) {
    workspace.net_row_offset[net + 1] =
        workspace.net_row_offset[net] + workspace.net_counts[net];
  }
}

void FastGraph::frame_primal_pass(std::span<const FrameGeometry* const> frames,
                                  FastWorkspace& workspace, bool training) const {
  obs::ScopedTimer timer(primal_seconds());
  frames_counter().add(static_cast<std::int64_t>(frames.size()));
  workspace.coord_bar.assign(frames.size() * 3 * model_->num_atoms(), 0.0);
  primal_pass(frames, workspace, training, workspace.coord_bar);
  pairs_counter().add(
      static_cast<std::int64_t>(workspace.net_row_offset.back()));
}

void FastGraph::primal_pass(std::span<const FrameGeometry* const> frames,
                            FastWorkspace& workspace, bool training,
                            std::span<double> coord_bar_all) const {
  const std::size_t num_frames = frames.size();
  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = model.num_atoms();
  const double nu = model.sel_norm();
  const std::size_t dwidth = m1_ * m2_;
  const nn::Curvature curvature =
      training ? nn::Curvature::kCache : nn::Curvature::kNone;
  size_workspace(frames, workspace);
  // Fitting rows per species, summed over the fused frames.
  const std::size_t* fit_rows =
      workspace.fit_base.data() + num_frames * md::kNumSpecies;

  // Embedding forward: one batch per (center, neighbor) species-pair net,
  // rows stacked frame-major within the net so K fused frames run each dense
  // layer as one K-times-taller batch.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    slot.x.resize(total);
    std::size_t row = 0;
    for (const FrameGeometry* geometry : frames) {
      const std::uint32_t begin = geometry->net_offsets[net];
      const std::uint32_t end = geometry->net_offsets[net + 1];
      for (std::uint32_t p = begin; p < end; ++p) slot.x[row++] = geometry->s[p];
    }
    nn::mlp_forward_batch(model.embedding_net(net), slot.x, total, slot.cache,
                          curvature);
  }

  // Descriptor contraction: T_i[m][c] = nu * sum_j g_j[m] R_j[c], one block
  // per center, frame-major.
  workspace.t.assign(workspace.center_base[num_frames] * m1_ * 4, 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    if (workspace.net_counts[net] == 0) continue;
    const std::span<const double> g_all = workspace.embed[net].cache.out();
    std::size_t row = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      for (std::uint32_t p = begin; p < end; ++p, ++row) {
        const double s = geometry.s[p];
        const double row4[4] = {s, s * geometry.ux[p], s * geometry.uy[p],
                                s * geometry.uz[p]};
        const double* g = g_all.data() + row * m1_;
        double* tblock =
            workspace.t.data() + t_block(workspace, geometry, f, geometry.center[p]);
        for (std::size_t m = 0; m < m1_; ++m) {
          const double gm = nu * g[m];
          for (std::size_t c = 0; c < 4; ++c) tblock[m * 4 + c] += gm * row4[c];
        }
      }
    }
  }

  // D_i[a][b] = sum_c T[a][c] T[b][c], written straight into the fitting
  // batch rows (centers grouped by species; frames stack as row blocks).
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    workspace.fit[sp].x.resize(fit_rows[sp] * dwidth);
  }
  for (std::size_t f = 0; f < num_frames; ++f) {
    const FrameGeometry& geometry = *frames[f];
    for (std::size_t i = geometry.first_center; i < geometry.end_center(); ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      double* dst = workspace.fit[sp].x.data() +
                    fit_row(workspace, geometry, f, i, sp) * dwidth;
      const double* tblock = workspace.t.data() + t_block(workspace, geometry, f, i);
      for (std::size_t a = 0; a < m1_; ++a) {
        for (std::size_t b = 0; b < m2_; ++b) {
          double sum = 0.0;
          for (std::size_t c = 0; c < 4; ++c) sum += tblock[a * 4 + c] * tblock[b * 4 + c];
          dst[a * m2_ + b] = sum;
        }
      }
    }
  }

  // Fitting forward; per-frame atomic energies accumulate in atom order
  // (matching the tape oracle's summation order).
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    if (fit_rows[sp] == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.fit[sp];
    nn::mlp_forward_batch(model.fitting_net(sp), slot.x, fit_rows[sp], slot.cache,
                          curvature);
  }
  workspace.energies.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    const FrameGeometry& geometry = *frames[f];
    double energy =
        static_cast<double>(geometry.num_centers) * model.energy_bias_per_atom();
    for (std::size_t i = geometry.first_center; i < geometry.end_center(); ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      energy += workspace.fit[sp].cache.out()[fit_row(workspace, geometry, f, i, sp)];
    }
    workspace.energies[f] = energy;
  }

  // Fitting reverse, seeded with dE/d(atomic energy) = 1; leaves the
  // descriptor adjoints in fit[sp].x_bar.  No parameter accumulation here:
  // in training the tangent pass carries the energy term via its seeds.
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t rows = fit_rows[sp];
    if (rows == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.fit[sp];
    slot.out_bar.assign(rows, 1.0);
    slot.x_bar.resize(rows * dwidth);
    nn::mlp_backward_batch(model.fitting_net(sp), rows, slot.cache, slot.out_bar,
                           slot.x_bar);
  }

  // Descriptor reverse: Tbar[p][c] = sum_b Dbar[p][b] T[b][c]
  //                               + [p < m2] sum_a Dbar[a][p] T[a][c].
  workspace.t_bar.resize(workspace.t.size());
  for (std::size_t f = 0; f < num_frames; ++f) {
    const FrameGeometry& geometry = *frames[f];
    for (std::size_t i = geometry.first_center; i < geometry.end_center(); ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const double* dbar = workspace.fit[sp].x_bar.data() +
                           fit_row(workspace, geometry, f, i, sp) * dwidth;
      const double* tblock = workspace.t.data() + t_block(workspace, geometry, f, i);
      double* tbar = workspace.t_bar.data() + t_block(workspace, geometry, f, i);
      for (std::size_t p = 0; p < m1_; ++p) {
        for (std::size_t c = 0; c < 4; ++c) {
          double acc = 0.0;
          for (std::size_t b = 0; b < m2_; ++b) acc += dbar[p * m2_ + b] * tblock[b * 4 + c];
          if (p < m2_) {
            for (std::size_t a = 0; a < m1_; ++a) acc += dbar[a * m2_ + p] * tblock[a * 4 + c];
          }
          tbar[p * 4 + c] = acc;
        }
      }
    }
  }

  // Embedding reverse plus force assembly.  Per pair:
  //   gbar[m] = nu * sum_c Tbar[m][c] R[c]       (seeds the net's backward)
  //   Rbar[c] = nu * sum_m Tbar[m][c] g[m]
  //   sbar    = sbar_embed + Rbar[0] + sum_k Rbar[k+1] u[k]
  //   ubar_k  = s Rbar[k+1]
  //   dbar    = (ubar - (ubar.u) u)/r + sbar s'(r) u
  // with dbar flowing +into atom j and -into the center atom.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    const std::span<const double> g_all = slot.cache.out();
    slot.out_bar.resize(total * m1_);
    std::size_t row = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      for (std::uint32_t p = begin; p < end; ++p, ++row) {
        const double s = geometry.s[p];
        const double row4[4] = {s, s * geometry.ux[p], s * geometry.uy[p],
                                s * geometry.uz[p]};
        const double* tbar = workspace.t_bar.data() +
                             t_block(workspace, geometry, f, geometry.center[p]);
        double* gbar = slot.out_bar.data() + row * m1_;
        for (std::size_t m = 0; m < m1_; ++m) {
          double acc = 0.0;
          for (std::size_t c = 0; c < 4; ++c) acc += tbar[m * 4 + c] * row4[c];
          gbar[m] = nu * acc;
        }
      }
    }
    slot.x_bar.resize(total);
    nn::mlp_backward_batch(model.embedding_net(net), total, slot.cache,
                           slot.out_bar, slot.x_bar);
    row = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      double* coord_bar = coord_bar_all.data() + f * 3 * n;
      for (std::uint32_t p = begin; p < end; ++p, ++row) {
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        const double* tbar = workspace.t_bar.data() +
                             t_block(workspace, geometry, f, geometry.center[p]);
        const double* g = g_all.data() + row * m1_;
        double rbar[4];
        for (std::size_t c = 0; c < 4; ++c) {
          double acc = 0.0;
          for (std::size_t m = 0; m < m1_; ++m) acc += tbar[m * 4 + c] * g[m];
          rbar[c] = nu * acc;
        }
        const double sbar = slot.x_bar[row] + rbar[0] + rbar[1] * u[0] +
                            rbar[2] * u[1] + rbar[3] * u[2];
        const double s = geometry.s[p];
        const double ubar[3] = {s * rbar[1], s * rbar[2], s * rbar[3]};
        const double ubar_dot_u = ubar[0] * u[0] + ubar[1] * u[1] + ubar[2] * u[2];
        for (std::size_t k = 0; k < 3; ++k) {
          const double dbar = (ubar[k] - ubar_dot_u * u[k]) / geometry.r[p] +
                              sbar * geometry.ds_dr[p] * u[k];
          coord_bar[3 * geometry.j[p] + k] += dbar;
          coord_bar[3 * geometry.center[p] + k] -= dbar;
        }
      }
    }
  }
}

void FastGraph::tangent_pass(std::span<const FrameGeometry* const> frames,
                             FastWorkspace& workspace, std::span<double> grad) const {
  obs::ScopedTimer timer(tangent_seconds());
  const DeepPotModel& model = *model_;
  const std::vector<md::Species>& types = model.types();
  const std::size_t num_frames = frames.size();
  const std::size_t n = model.num_atoms();
  const double nu = model.sel_norm();
  const std::size_t dwidth = m1_ * m2_;
  const std::size_t* fit_rows =
      workspace.fit_base.data() + num_frames * md::kNumSpecies;

  workspace.u_dot.resize(3 * workspace.net_row_offset.back());

  // Geometry tangents along lambda (ddot = lambda_j - lambda_i) and the
  // embedding JVP:  rdot = u.ddot, udot = (ddot - u rdot)/r, sdot = s'(r) rdot.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    slot.x_dot.resize(total);
    std::size_t row = workspace.net_row_offset[net];
    std::size_t local = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      const double* lambda = workspace.lambda.data() + f * 3 * n;
      for (std::uint32_t p = begin; p < end; ++p, ++row, ++local) {
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        double ddot[3];
        for (std::size_t k = 0; k < 3; ++k) {
          ddot[k] = lambda[3 * geometry.j[p] + k] -
                    lambda[3 * geometry.center[p] + k];
        }
        const double rdot = ddot[0] * u[0] + ddot[1] * u[1] + ddot[2] * u[2];
        double* udot = workspace.u_dot.data() + 3 * row;
        for (std::size_t k = 0; k < 3; ++k) {
          udot[k] = (ddot[k] - u[k] * rdot) / geometry.r[p];
        }
        slot.x_dot[local] = geometry.ds_dr[p] * rdot;
      }
    }
    nn::mlp_jvp_batch(model.embedding_net(net), slot.x_dot, total, slot.cache);
  }

  // Tdot[m][c] = nu * sum_j (gdot[m] R[c] + g[m] Rdot[c]),
  // Rdot = [sdot, sdot u + s udot].
  workspace.t_dot.assign(workspace.t.size(), 0.0);
  for (std::size_t net = 0; net < kNets; ++net) {
    if (workspace.net_counts[net] == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    const std::span<const double> g_all = slot.cache.out();
    const std::span<const double> gdot_all = slot.cache.out_dot();
    std::size_t row = workspace.net_row_offset[net];
    std::size_t local = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      for (std::uint32_t p = begin; p < end; ++p, ++row, ++local) {
        const double s = geometry.s[p];
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        const double sdot = slot.x_dot[local];
        const double* udot = workspace.u_dot.data() + 3 * row;
        const double row4[4] = {s, s * u[0], s * u[1], s * u[2]};
        const double row_dot[4] = {sdot, sdot * u[0] + s * udot[0],
                                   sdot * u[1] + s * udot[1],
                                   sdot * u[2] + s * udot[2]};
        const double* g = g_all.data() + local * m1_;
        const double* gdot = gdot_all.data() + local * m1_;
        double* tdot = workspace.t_dot.data() +
                       t_block(workspace, geometry, f, geometry.center[p]);
        for (std::size_t m = 0; m < m1_; ++m) {
          for (std::size_t c = 0; c < 4; ++c) {
            tdot[m * 4 + c] += nu * (gdot[m] * row4[c] + g[m] * row_dot[c]);
          }
        }
      }
    }
  }

  // Ddot[a][b] = sum_c (Tdot[a][c] T[b][c] + T[a][c] Tdot[b][c]) feeds the
  // fitting JVP; the fitting tangent-reverse yields the fit parameter
  // segments of the combined gradient and the descriptor tangent-adjoints
  // Dbardot.  The output tangent-adjoint seed is e_coef[f] per row -- the
  // tangent of the loss's energy seed -- which is how the energy-term
  // gradient rides this pass (DESIGN.md section 13).
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    workspace.fit[sp].x_dot.resize(fit_rows[sp] * dwidth);
  }
  for (std::size_t f = 0; f < num_frames; ++f) {
    const FrameGeometry& geometry = *frames[f];
    for (std::size_t i = geometry.first_center; i < geometry.end_center(); ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      double* dst = workspace.fit[sp].x_dot.data() +
                    fit_row(workspace, geometry, f, i, sp) * dwidth;
      const double* tblock = workspace.t.data() + t_block(workspace, geometry, f, i);
      const double* tdot = workspace.t_dot.data() + t_block(workspace, geometry, f, i);
      for (std::size_t a = 0; a < m1_; ++a) {
        for (std::size_t b = 0; b < m2_; ++b) {
          double sum = 0.0;
          for (std::size_t c = 0; c < 4; ++c) {
            sum += tdot[a * 4 + c] * tblock[b * 4 + c] +
                   tblock[a * 4 + c] * tdot[b * 4 + c];
          }
          dst[a * m2_ + b] = sum;
        }
      }
    }
  }
  for (std::size_t sp = 0; sp < md::kNumSpecies; ++sp) {
    const std::size_t rows = fit_rows[sp];
    if (rows == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.fit[sp];
    nn::mlp_jvp_batch(model.fitting_net(sp), slot.x_dot, rows, slot.cache);
    slot.out_bar_dot.resize(rows);
    for (std::size_t f = 0; f < num_frames; ++f) {
      const std::size_t* base = workspace.fit_base.data() + f * md::kNumSpecies + sp;
      std::fill(slot.out_bar_dot.data() + base[0],
                slot.out_bar_dot.data() + base[md::kNumSpecies], workspace.e_coef[f]);
    }
    slot.x_bar_dot.resize(rows * dwidth);
    const std::span<double> grad_segment = grad.subspan(
        fit_param_offset_[sp], model.fitting_net(sp).num_params());
    nn::mlp_vjp_tangent_batch(model.fitting_net(sp), slot.x, slot.x_dot, rows,
                              slot.cache, slot.out_bar_dot, slot.x_bar_dot,
                              grad_segment);
  }

  // Tangent of the descriptor reverse (product rule on the Tbar formula):
  // Tbardot[p][c] = sum_b (Dbardot[p][b] T[b][c] + Dbar[p][b] Tdot[b][c])
  //             + [p < m2] sum_a (Dbardot[a][p] T[a][c] + Dbar[a][p] Tdot[a][c]).
  workspace.t_bar_dot.resize(workspace.t.size());
  for (std::size_t f = 0; f < num_frames; ++f) {
    const FrameGeometry& geometry = *frames[f];
    for (std::size_t i = geometry.first_center; i < geometry.end_center(); ++i) {
      const auto sp = static_cast<std::size_t>(types[i]);
      const std::size_t fit_offset = fit_row(workspace, geometry, f, i, sp) * dwidth;
      const double* dbar = workspace.fit[sp].x_bar.data() + fit_offset;
      const double* dbardot = workspace.fit[sp].x_bar_dot.data() + fit_offset;
      const std::size_t t_offset = t_block(workspace, geometry, f, i);
      const double* tblock = workspace.t.data() + t_offset;
      const double* tdot = workspace.t_dot.data() + t_offset;
      double* tbardot = workspace.t_bar_dot.data() + t_offset;
      for (std::size_t p = 0; p < m1_; ++p) {
        for (std::size_t c = 0; c < 4; ++c) {
          double acc = 0.0;
          for (std::size_t b = 0; b < m2_; ++b) {
            acc += dbardot[p * m2_ + b] * tblock[b * 4 + c] +
                   dbar[p * m2_ + b] * tdot[b * 4 + c];
          }
          if (p < m2_) {
            for (std::size_t a = 0; a < m1_; ++a) {
              acc += dbardot[a * m2_ + p] * tblock[a * 4 + c] +
                     dbar[a * m2_ + p] * tdot[a * 4 + c];
            }
          }
          tbardot[p * 4 + c] = acc;
        }
      }
    }
  }

  // Embedding tangent-reverse, seeded with the tangent of gbar:
  // gbardot[m] = nu * sum_c (Tbardot[m][c] R[c] + Tbar[m][c] Rdot[c]).
  // Coordinate tangent-adjoints are not needed (only parameter derivatives
  // leave this pass), so x_bar_dot stays empty.
  for (std::size_t net = 0; net < kNets; ++net) {
    const std::size_t total = workspace.net_counts[net];
    if (total == 0) continue;
    FastWorkspace::NetSlot& slot = workspace.embed[net];
    slot.out_bar_dot.resize(total * m1_);
    std::size_t row = workspace.net_row_offset[net];
    std::size_t local = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
      const FrameGeometry& geometry = *frames[f];
      const std::uint32_t begin = geometry.net_offsets[net];
      const std::uint32_t end = geometry.net_offsets[net + 1];
      for (std::uint32_t p = begin; p < end; ++p, ++row, ++local) {
        const double s = geometry.s[p];
        const double u[3] = {geometry.ux[p], geometry.uy[p], geometry.uz[p]};
        const double sdot = slot.x_dot[local];
        const double* udot = workspace.u_dot.data() + 3 * row;
        const double row4[4] = {s, s * u[0], s * u[1], s * u[2]};
        const double row_dot[4] = {sdot, sdot * u[0] + s * udot[0],
                                   sdot * u[1] + s * udot[1],
                                   sdot * u[2] + s * udot[2]};
        const std::size_t t_offset = t_block(workspace, geometry, f, geometry.center[p]);
        const double* tbar = workspace.t_bar.data() + t_offset;
        const double* tbardot = workspace.t_bar_dot.data() + t_offset;
        double* gbardot = slot.out_bar_dot.data() + local * m1_;
        for (std::size_t m = 0; m < m1_; ++m) {
          double acc = 0.0;
          for (std::size_t c = 0; c < 4; ++c) {
            acc += tbardot[m * 4 + c] * row4[c] + tbar[m * 4 + c] * row_dot[c];
          }
          gbardot[m] = nu * acc;
        }
      }
    }
    const std::span<double> grad_segment = grad.subspan(
        embed_param_offset_[net], model.embedding_net(net).num_params());
    nn::mlp_vjp_tangent_batch(model.embedding_net(net), slot.x, slot.x_dot,
                              total, slot.cache, slot.out_bar_dot, {},
                              grad_segment);
  }
}

md::ForceEnergy FastGraph::energy_forces(const FrameGeometry& geometry,
                                         FastWorkspace& workspace) const {
  const FrameGeometry* frame = &geometry;
  frame_primal_pass(std::span<const FrameGeometry* const>(&frame, 1), workspace,
                    /*training=*/false);
  md::ForceEnergy out;
  out.energy = workspace.energies[0];
  out.forces.resize(geometry.num_atoms);
  for (std::size_t i = 0; i < geometry.num_atoms; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      out.forces[i][k] = -workspace.coord_bar[3 * i + k];
    }
  }
  return out;
}

double FastGraph::accumulate_range(const FrameGeometry& geometry,
                                   FastWorkspace& workspace,
                                   std::span<double> coord_bar) const {
  if (coord_bar.size() != 3 * model_->num_atoms()) {
    throw util::ValueError("fast_graph: coord_bar span size mismatch");
  }
  const FrameGeometry* frame = &geometry;
  primal_pass(std::span<const FrameGeometry* const>(&frame, 1), workspace,
              /*training=*/false, coord_bar);
  return workspace.energies[0];
}

double FastGraph::loss_and_grad(const FrameGeometry& geometry, double energy_ref,
                                std::span<const md::Vec3> forces_ref,
                                const LossWeights& weights,
                                FastWorkspace& workspace,
                                std::span<double> grad) const {
  const FrameTarget target{&geometry, energy_ref, forces_ref};
  double loss = 0.0;
  loss_and_grad_fused(std::span<const FrameTarget>(&target, 1), weights,
                      workspace, grad, std::span<double>(&loss, 1));
  return loss;
}

void FastGraph::loss_and_grad_fused(std::span<const FrameTarget> frames,
                                    const LossWeights& weights,
                                    FastWorkspace& workspace,
                                    std::span<double> grad,
                                    std::span<double> losses) const {
  const std::size_t num_frames = frames.size();
  const std::size_t n = model_->num_atoms();
  if (num_frames == 0) {
    throw util::ValueError("fast_graph: empty fused frame list");
  }
  if (grad.size() != model_->num_params()) {
    throw util::ValueError("fast_graph: grad span size mismatch");
  }
  if (losses.size() != num_frames) {
    throw util::ValueError("fast_graph: losses span size mismatch");
  }
  workspace.frame_ptrs.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    if (frames[f].forces_ref.size() != n) {
      throw util::ValueError("fast_graph: reference force count mismatch");
    }
    const FrameGeometry* geometry = frames[f].geometry;
    if (geometry != nullptr &&
        (geometry->first_center != 0 || geometry->num_centers != n)) {
      throw util::ValueError("fast_graph: a training geometry must cover its whole frame");
    }
    workspace.frame_ptrs[f] = geometry;
  }
  const std::span<const FrameGeometry* const> geometries(workspace.frame_ptrs);

  frame_primal_pass(geometries, workspace, /*training=*/true);

  // Per frame: the force residual F_pred - F_ref is both the force part of
  // the loss and, scaled by -f_coef, the coordinate tangent direction of the
  // combined second-order pass.  The energy part seeds the output
  // tangent-adjoints (e_coef), so one tangent pass accumulates the whole
  // gradient dL/dtheta = e_coef dE/dtheta - f_coef grad_theta(residual .
  // dE/dx) for every fused frame at once.
  const double inv_n = 1.0 / static_cast<double>(n);
  const double inv_3n = 1.0 / (3.0 * static_cast<double>(n));
  const double f_coef = 2.0 * weights.pref_f * inv_3n;
  workspace.lambda.resize(num_frames * 3 * n);
  workspace.e_coef.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    const std::span<const md::Vec3> forces_ref = frames[f].forces_ref;
    const double* coord_bar = workspace.coord_bar.data() + f * 3 * n;
    double* lambda = workspace.lambda.data() + f * 3 * n;
    double force_ss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        const double residual = -coord_bar[3 * i + k] - forces_ref[i][k];
        lambda[3 * i + k] = -f_coef * residual;
        force_ss += residual * residual;
      }
    }
    const double de = (workspace.energies[f] - frames[f].energy_ref) * inv_n;
    losses[f] = weights.pref_e * de * de + weights.pref_f * force_ss * inv_3n;
    workspace.e_coef[f] = 2.0 * weights.pref_e * de * inv_n;
  }

  std::fill(grad.begin(), grad.end(), 0.0);
  tangent_pass(geometries, workspace, grad);
}

}  // namespace dpho::dp
