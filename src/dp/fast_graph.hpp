// Analytic fused forward/backward kernels for DeepPot-SE: the only code in
// the shipped binaries that evaluates or differentiates the model.
// Training, validation, dp::Potential::evaluate (dp_test, dp_serve) and the
// MD sessions (dp/md_session.hpp) all run these passes.
//
// DeePMD-kit trains through TensorFlow's double backprop; an autodiff tape
// would allocate one node per scalar multiply, per neighbor, per atom, per
// frame, per step.  FastGraph computes the same quantities with
// hand-derived kernels over contiguous batches and a reusable arena,
// performing zero per-neighbor heap allocations in steady state:
//
//   * energy and forces (F = -dE/dx) -- one batched forward plus one
//     analytic reverse sweep (inference: dp_test, dp_serve, validation; an
//     MD session runs it per tile of whole atoms, accumulate_range);
//   * the full parameter gradient of the DeePMD loss, including the
//     second-order force term dF/dtheta = -d2E/(dx dtheta), via
//     forward-over-reverse: a tangent (dual-number) pass in the coordinate
//     direction v = F_pred - F_ref turns the mixed Hessian-vector product
//     grad_theta(v . grad_x E) into one extra forward + one extra reverse
//     sweep (derivation in DESIGN.md section 10).
//
// Geometry is stored SoA (structure-of-arrays): each per-pair attribute is
// one contiguous net-major array, so every kernel sweep is a streaming read
// of exactly the fields it touches instead of striding over an AoS struct.
//
// Passes fuse multiple frames: K frames of the same atom set run through
// each per-net dense layer as one K-times-taller batch (loss_and_grad_fused),
// which is where the batched SIMD kernels in nn/simd.hpp get their row
// counts from.  The fused gradient uses combined tangent seeding -- the
// energy-term coefficient e_coef rides the output tangent-adjoint seed while
// the force residual rides the coordinate tangent -- so one tangent pass
// accumulates the complete per-frame loss gradient and the reverse pass
// never touches parameters (DESIGN.md section 13).
//
// An autodiff tape is kept only as a test-only oracle
// (tests/support/tape_oracle): the parity suites hold these kernels to agree
// with plain autodiff.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dp/loss.hpp"
#include "dp/model.hpp"
#include "md/neighbor.hpp"
#include "md/potential.hpp"
#include "nn/mlp_kernels.hpp"

namespace dpho::dp {

/// The one pair layout of the DeepPot-SE kernels: the in-cutoff pairs of the
/// center atoms [first_center, first_center + num_centers) of a frame -- the
/// whole frame, or in dp::MdSession one tile of whole atoms -- with their
/// geometry-only quantities.  Training frames are static, so the trainer
/// builds each frame's geometry once per training; MD sessions refresh
/// theirs in place every step.  Storage is SoA, net-major (grouped by the
/// (center species, neighbor species) embedding net); within a net the order
/// is fixed by the caller's pair walk, so every sweep over pairs is
/// deterministic.  Pair p of net e occupies index net_offsets[e] + p of
/// every array; arrays may be longer than the net_offsets.back() pairs in
/// use (MD sizes them to the candidate count).  Neighbors may lie anywhere
/// in the frame; `num_atoms` is the frame's atom count.
struct FrameGeometry {
  std::vector<std::uint32_t> center;  // atom i
  std::vector<std::uint32_t> j;       // neighbor atom index
  std::vector<double> r;              // |d|, d = minimum-image x_j - x_i
  std::vector<double> s;              // switching value s(r)
  std::vector<double> ds_dr;          // s'(r)
  std::vector<double> ux, uy, uz;     // unit vector d / r
  std::vector<std::uint32_t> net_offsets;  // kNumSpecies^2 + 1 entries
  std::size_t num_atoms = 0;
  std::size_t first_center = 0;  // the center atoms are a contiguous range
  std::size_t num_centers = 0;

  std::size_t size() const { return net_offsets.empty() ? 0 : net_offsets.back(); }
  std::size_t end_center() const { return first_center + num_centers; }
  std::size_t net_count(std::size_t net) const {
    return net_offsets[net + 1] - net_offsets[net];
  }

  /// Sizes every pair array to `count`.  With `headroom`, capacity grows by
  /// an extra eighth, so counts that fluctuate around a steady value (MD
  /// skeleton rebuilds) stop allocating once warm.
  void resize_pairs(std::size_t count, bool headroom = false) {
    const auto fit = [&](auto& column) {
      if (headroom && column.capacity() < count) {
        column.reserve(count + count / 8 + 64);
      }
      column.resize(count);
    };
    fit(center);
    fit(j);
    fit(r);
    fit(s);
    fit(ds_dr);
    fit(ux);
    fit(uy);
    fit(uz);
  }

  /// Writes pair `p` -- center i, neighbor j at minimum-image displacement
  /// d = x_j - x_i -- when |d| < rcut (strictly: a pair at the cutoff
  /// contributes nothing), and returns whether it did.  The one place pair
  /// geometry is derived.
  bool store_pair(std::size_t p, std::uint32_t i, std::uint32_t neighbor,
                  const md::Vec3& d, const SwitchingFunction& switching) {
    const double dist = md::norm(d);
    if (dist >= switching.rcut()) return false;
    center[p] = i;
    j[p] = neighbor;
    r[p] = dist;
    s[p] = switching.value(dist);
    ds_dr[p] = switching.derivative(dist);
    ux[p] = d[0] / dist;
    uy[p] = d[1] / dist;
    uz[p] = d[2] / dist;
    return true;
  }
};

/// Builds (into a reusable buffer) the whole-frame geometry of `frame` from
/// its neighbor list, computing each pair's minimum-image displacement from
/// the positions once (from the pair's lower id, negated in the higher id's
/// row).  `list` must be the frame's list at the model's cutoff
/// (DeepPotModel::build_topology); throws util::ValueError when its atom
/// count or cutoff does not match the model, or naming the first atom with
/// a NaN or infinite coordinate.
void build_frame_geometry(const DeepPotModel& model, const md::Frame& frame,
                          const md::NeighborList& list, FrameGeometry& out);

/// One frame of a fused loss-gradient batch: its geometry plus the training
/// labels.  The geometry pointer must outlive the call.
struct FrameTarget {
  const FrameGeometry* geometry = nullptr;
  double energy_ref = 0.0;
  std::span<const md::Vec3> forces_ref;
};

/// The arena all FastGraph passes run in.  Buffers are sized on every use
/// and only ever grow, so one workspace per worker thread makes the whole
/// training step allocation-free in steady state.  A workspace may be reused
/// across models of different shapes and fusion widths (sizes are re-derived
/// per call).
struct FastWorkspace {
  /// Batched input/adjoint rows plus the layer caches for one net group.
  struct NetSlot {
    std::vector<double> x;            // batch inputs
    std::vector<double> x_dot;        // batch input tangents
    std::vector<double> x_bar;        // batch input adjoints
    std::vector<double> x_bar_dot;    // batch input tangent-adjoints
    std::vector<double> out_bar;      // output adjoint seeds
    std::vector<double> out_bar_dot;  // output tangent-adjoint seeds
    nn::MlpBatchCache cache;
  };
  std::vector<NetSlot> embed;  // kNumSpecies^2 slots
  std::vector<NetSlot> fit;    // kNumSpecies slots

  // Per-center T-matrix blocks (centers summed over frames, x m1 x 4),
  // frame-major, and their adjoints/tangents.
  std::vector<double> t, t_bar, t_dot, t_bar_dot;
  std::vector<double> coord_bar;  // 3N per frame: dE/dx (forces = -this)
  std::vector<double> lambda;     // 3N per frame: scaled coordinate tangent
  std::vector<double> u_dot;      // 3 per pair row: tangent of the unit vector
  std::vector<double> energies;   // per-frame energies from the last primal
  std::vector<double> e_coef;     // per-frame energy-term seed coefficients
  // Fused batch bookkeeping (sized per call).
  std::vector<std::size_t> net_counts;      // per net: rows summed over frames
  std::vector<std::size_t> net_row_offset;  // prefix sums of net_counts
  // Per-frame bases (frames + 1 entries each): frame f's T blocks start at
  // block center_base[f], its species-sp fitting rows at row
  // fit_base[f * kNumSpecies + sp].  The last entry holds the totals.
  std::vector<std::size_t> center_base;
  std::vector<std::size_t> fit_base;
  std::vector<const FrameGeometry*> frame_ptrs;
};

class FastGraph {
 public:
  /// Binds to `model` (not owned; must outlive the FastGraph).  Atom/species
  /// grouping and flat parameter offsets are derived once here.
  explicit FastGraph(const DeepPotModel& model);

  /// Energy of the geometry's center range and the forces it exerts on
  /// every atom (the whole frame's, for a build_frame_geometry geometry).
  md::ForceEnergy energy_forces(const FrameGeometry& geometry,
                                FastWorkspace& workspace) const;

  /// The MD entry point: adds (+=) dE/dx of the geometry's center range into
  /// `coord_bar` (3 * num_atoms entries) and returns the range's energy,
  /// num_centers * bias plus the atomic energies in atom order.  O(range),
  /// never O(frame); records no dp.kernels.* metrics.
  double accumulate_range(const FrameGeometry& geometry, FastWorkspace& workspace,
                          std::span<double> coord_bar) const;

  /// DeePMD per-frame loss and its full analytic parameter gradient
  /// (written into `grad`, sized model.num_params(); overwritten, not
  /// accumulated).  Matches the tape oracle's double-backprop gradient to
  /// rounding.  Equivalent to a one-frame loss_and_grad_fused call.
  double loss_and_grad(const FrameGeometry& geometry, double energy_ref,
                       std::span<const md::Vec3> forces_ref,
                       const LossWeights& weights, FastWorkspace& workspace,
                       std::span<double> grad) const;

  /// Fused multi-frame pass: per-net batches stack all frames' rows, so K
  /// frames cost one sweep of K-times-taller dense batches.  Writes each
  /// frame's loss into `losses` (sized frames.size()) and the SUM of the
  /// per-frame gradients into `grad` (overwritten).  The per-frame gradient
  /// contributions accumulate in net-major batch order, which is fixed for a
  /// fixed frame list -- results are independent of thread count but DO
  /// depend on how frames are grouped into fused calls.  Every geometry must
  /// cover its whole frame (util::ValueError otherwise).
  void loss_and_grad_fused(std::span<const FrameTarget> frames,
                           const LossWeights& weights, FastWorkspace& workspace,
                           std::span<double> grad,
                           std::span<double> losses) const;

 private:
  /// Forward + primal reverse over the fused frame list: fills
  /// workspace.energies (per-frame energy of each center range) and adds
  /// (+=) dE/dx into `coord_bar` (3N per frame).  `training` additionally
  /// caches curvature for the tangent pass.  The reverse pass never
  /// accumulates parameter gradients; the tangent pass carries the energy
  /// term via its seed (see DESIGN.md section 13).
  void primal_pass(std::span<const FrameGeometry* const> frames,
                   FastWorkspace& workspace, bool training,
                   std::span<double> coord_bar) const;

  /// primal_pass for training and evaluation frames: zeroes
  /// workspace.coord_bar, runs the pass into it and records dp.kernels.*.
  void frame_primal_pass(std::span<const FrameGeometry* const> frames,
                         FastWorkspace& workspace, bool training) const;

  /// Tangent (forward-over-reverse) pass along workspace.lambda with output
  /// tangent-adjoint seeds workspace.e_coef[frame]; accumulates (+=) the
  /// combined gradient sum_f (e_coef_f dE_f/dtheta + grad_theta(lambda_f .
  /// grad_x E_f)) into `grad`.  Requires the caches left by a
  /// primal_pass(training = true).
  void tangent_pass(std::span<const FrameGeometry* const> frames,
                    FastWorkspace& workspace, std::span<double> grad) const;

  void size_workspace(std::span<const FrameGeometry* const> frames,
                      FastWorkspace& workspace) const;

  /// Atoms of species `sp` among atoms [0, i).
  std::size_t species_before(std::size_t i, std::size_t sp) const {
    return species_before_[i * md::kNumSpecies + sp];
  }
  /// Row of center `i` of fused frame `f` in its species' fitting batch.
  std::size_t fit_row(const FastWorkspace& workspace, const FrameGeometry& geometry,
                      std::size_t f, std::size_t i, std::size_t sp) const {
    return workspace.fit_base[f * md::kNumSpecies + sp] + species_before(i, sp) -
           species_before(geometry.first_center, sp);
  }
  /// Offset of center `i`'s T block (m1 x 4) of fused frame `f`.
  std::size_t t_block(const FastWorkspace& workspace, const FrameGeometry& geometry,
                      std::size_t f, std::size_t i) const {
    return (workspace.center_base[f] + i - geometry.first_center) * m1_ * 4;
  }

  const DeepPotModel* model_;
  std::size_t m1_ = 0;  // embedding output width
  std::size_t m2_ = 0;  // axis neurons
  // Per-species prefix counts, (num_atoms + 1) x kNumSpecies: fitting rows
  // group atoms by species in atom order, so an atom's row, a species'
  // batch size and a center range's rows all follow from this table.
  std::vector<std::uint32_t> species_before_;
  // Flat parameter offsets (gather_params order: embeddings then fittings).
  std::vector<std::size_t> embed_param_offset_;
  std::vector<std::size_t> fit_param_offset_;
};

}  // namespace dpho::dp
