// On-disk catalog of trained potentials from an HPO run.
//
// An NSGA-II run ends with a Pareto front of trained models; serving needs to
// pick some of them up later, by identity ("model m3"), by position ("the
// second front member"), or by objective quality ("every model with force
// RMSE under 0.2").  ModelArchive is that catalog: a directory holding one
// model artifact per model (an <id>.json header beside an <id>.params blob,
// DeepPotModel::save_file) plus an archive.json index
//
//   {"schema": "dpho.archive.v1",
//    "models": [{"id": ..., "file": "<id>.json", "rank": ...,
//                "objectives": {...}, "atoms": ..., "spec": {...}}, ...]}
//
// The index stores each model's ModelSpec and objectives so selection never
// has to open a model; the artifact stays the authoritative source of
// weights.  Older archives whose <id>.json holds the parameters inline still
// load.  Writers append through add() (atomic catalog rewrite, so a
// crashed writer leaves the previous catalog intact); dp_train --archive and
// the serve tests both write through this API, and dp_serve reads through it.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "dp/model_spec.hpp"
#include "dp/potential.hpp"

namespace dpho::dp {

/// One catalog row.
struct ArchiveEntry {
  std::string id;
  std::string file;  // "<id>.json", the artifact header in the archive directory
  int rank = 0;      // Pareto rank (0 = non-dominated front)
  std::vector<std::pair<std::string, double>> objectives;  // insertion order
  ModelSpec spec;
  std::size_t num_atoms = 0;

  bool has_objective(const std::string& name) const;
  /// Throws util::ValueError when the objective is not recorded.
  double objective(const std::string& name) const;
};

class ModelArchive {
 public:
  static constexpr const char* kSchema = "dpho.archive.v1";

  /// Creates `dir` (and parents) with an empty catalog.  Refuses a directory
  /// that already holds a catalog.
  static ModelArchive create(const std::filesystem::path& dir);

  /// Opens an existing catalog; throws IoError when archive.json is missing,
  /// ParseError/ValueError when it is malformed or a row's file is not
  /// "<id>.json".
  static ModelArchive open(const std::filesystem::path& dir);

  const std::filesystem::path& dir() const { return dir_; }
  const std::vector<ArchiveEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  const ArchiveEntry& entry(std::size_t index) const;
  const ArchiveEntry* find(const std::string& id) const;
  /// Throws util::ValueError for an unknown id.
  const ArchiveEntry& at(const std::string& id) const;

  /// Resolves a selection expression to catalog ids (catalog order):
  ///   "all"             every model
  ///   "rank=0"          Pareto rank equality
  ///   "rmse_f_val<=0.2" objective filter (<, <=, >, >=)
  ///   "0,2,m5"          comma list of indices and/or ids
  /// Throws util::ValueError on unknown ids/indices/objectives or when the
  /// selection is empty.
  std::vector<std::string> select(const std::string& selector) const;

  /// Loads the model behind `id` as an owning Potential.
  Potential load(const std::string& id) const;

  /// Stores `model` as <id>.json and <id>.params and appends a catalog row;
  /// the catalog file is rewritten atomically.  The id must be unique within
  /// the archive and match [A-Za-z0-9_.-]+.
  void add(const std::string& id, const DeepPotModel& model,
           std::vector<std::pair<std::string, double>> objectives, int rank = 0);

 private:
  ModelArchive() = default;
  void write_catalog() const;

  std::filesystem::path dir_;
  std::vector<ArchiveEntry> entries_;
};

}  // namespace dpho::dp
