// DeepPot-SE style neural-network interatomic potential.
//
// Architecture (Zhang et al., "End-to-end symmetry preserving inter-atomic
// potential energy model", the model behind DeePMD-kit's se_e2_a descriptor):
//
//   for every atom i:
//     for every neighbor j within rcut:
//       s_ij = switching(r_ij)                       (smooth, 0 at rcut)
//       R_ij = [s, s x/r, s y/r, s z/r]              (1x4 local frame row)
//       g_ij = Embed_{t_i,t_j}(s_ij)                 (M1-vector, per type pair)
//     T_i  = (1/sel) sum_j g_ij^T R_ij               (M1 x 4)
//     D_i  = T_i T2_i^T, T2 = first M2 rows of T_i   (M1 x M2 descriptor)
//     E_i  = Fit_{t_i}(vec(D_i)) + bias_{t_i}
//   E = sum_i E_i,  F = -dE/dx
//
// The descriptor is invariant to translation, rigid rotation, and permutation
// of like atoms, and smooth as neighbors enter/leave the cutoff sphere; the
// test-suite verifies each of those properties.
//
// This class holds the architecture, the parameters and their serialization
// as a model artifact: a small JSON header (save()) beside a raw float64
// parameter blob (DESIGN.md section 12).  Evaluation and differentiation
// live in one place, the analytic kernels:
// dp::Potential / dp::FastGraph (dp/potential.hpp, dp/fast_graph.hpp) for
// frames and training, dp::MdSession (dp/md_session.hpp) for MD.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "dp/config.hpp"
#include "dp/model_spec.hpp"
#include "dp/switching.hpp"
#include "md/dataset.hpp"
#include "md/neighbor.hpp"
#include "nn/mlp.hpp"

namespace dpho::dp {

/// The trainable potential.
class DeepPotModel {
 public:
  /// `types` fixes the atom ordering the model is trained on (each entry a
  /// species below md::kNumSpecies, else util::ValueError naming the index);
  /// `energy_bias_per_atom` centres predictions on the dataset mean.
  DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
               double energy_bias_per_atom, std::uint64_t seed);

  /// Convenience: takes the architecture slice of a full training input.
  DeepPotModel(const TrainInput& config, std::vector<md::Species> types,
               double energy_bias_per_atom, std::uint64_t seed);

  const ModelSpec& spec() const { return spec_; }
  std::size_t num_atoms() const { return types_.size(); }

  // -- flat parameter space (embedding nets then fitting nets) --
  std::size_t num_params() const { return num_params_; }
  std::vector<double> gather_params() const;
  void scatter_params(std::span<const double> params);

  /// The frame's CSR neighbor list at the model's cutoff (the frame's own
  /// box length); throws util::ValueError when the atom count does not match.
  md::NeighborList build_topology(const md::Frame& frame) const;

  /// The model artifact: a header at `<stem>.json` and, at blob_path() of
  /// it, the raw little-endian float64 parameters in gather_params order.
  /// The header holds "format" (kFormat), "spec", "types",
  /// "energy_bias_per_atom", "num_params", "byte_order" ("little") and the
  /// blob's "checksum" (16 hex digits).
  static constexpr const char* kFormat = "dpho.model.v2";
  static std::filesystem::path blob_path(const std::filesystem::path& header);

  /// The artifact header for the current parameters.
  util::Json save() const;
  /// The one writer (dp_train's model.json, ModelArchive::add): the blob
  /// first, then the header, each through util::atomic_write_file, so a kill
  /// between the two leaves no header or an old one whose checksum fails.
  /// Non-finite parameters are written as they are.
  void save_file(const std::filesystem::path& header) const;

  /// The one decoder, from a header and its blob's bytes.  Throws
  /// util::ValueError for an unknown format or byte order, a num_params that
  /// is not a uint or not the spec's count, a blob whose size is not
  /// 8 * num_params, a checksum mismatch, a non-finite parameter or a type
  /// outside [0, md::kNumSpecies); util::ParseError for a malformed checksum.
  static DeepPotModel load(const util::Json& header, std::span<const std::byte> blob);
  /// Reads a header and the blob beside it (util::IoError when either is
  /// missing).  A legacy checkpoint -- an inline "params" array and no
  /// "format", with a "spec" or a legacy "config" block -- loads as before.
  static DeepPotModel load_file(const std::filesystem::path& header);

  // -- read-only internals for the analytic kernels (dp/fast_graph.hpp) --
  /// Flat index of the embedding net serving a (center, neighbor) pair.
  static std::size_t pair_index(md::Species center, md::Species neighbor) {
    return static_cast<std::size_t>(center) * md::kNumSpecies +
           static_cast<std::size_t>(neighbor);
  }
  const std::vector<md::Species>& types() const { return types_; }
  const nn::Mlp& embedding_net(std::size_t pair) const { return embeddings_[pair]; }
  const nn::Mlp& fitting_net(std::size_t species) const { return fittings_[species]; }
  const SwitchingFunction& switching() const { return switching_; }
  double sel_norm() const { return sel_norm_; }
  double energy_bias_per_atom() const { return energy_bias_per_atom_; }

 private:
  /// The architecture with every parameter zero and no initialization: the
  /// load path fills each net exactly once.
  DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
               double energy_bias_per_atom);
  /// The model a header or legacy document describes, before its parameters.
  static DeepPotModel unfilled(const util::Json& document);
  static DeepPotModel load_inline(const util::Json& document);
  util::Json header(std::span<const double> params) const;

  ModelSpec spec_;
  std::vector<md::Species> types_;
  double energy_bias_per_atom_ = 0.0;
  SwitchingFunction switching_;
  double sel_norm_ = 1.0;  // 1/sel descriptor normalization
  std::vector<nn::Mlp> embeddings_;  // kNumSpecies^2 nets
  std::vector<nn::Mlp> fittings_;    // kNumSpecies nets
  std::size_t num_params_ = 0;
};

}  // namespace dpho::dp
