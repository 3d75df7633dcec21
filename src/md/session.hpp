// Persistent MD evaluation sessions: the zero-allocation force hot path.
//
// A PotentialSession owns everything an MD run reuses across steps -- the
// Verlet-skin neighbor list, a candidate-pair skeleton, and all force
// workspace -- so a steady-state step, and a rebuild step once warmed,
// performs zero heap allocations (the same contract dp's training kernels
// set in DESIGN.md section 8).  Topology is rebuilt only on skin triggers,
// on the session's pool; between rebuilds each step refreshes distances in
// place from the *stale pair identities* (the Verlet guarantee: identities
// complete, distances outdated).
//
// Determinism contract: results are a pure function of (potential, options,
// state) -- never of the thread count.  The atom range is split into a fixed
// chunk partition (derived from N alone); chunks may run on any pool thread,
// but each chunk writes only its own outputs -- the forces of its own
// contiguous atom range (reference backend) or its own full-3N adjoint
// buffer, filled tile by tile by dp::FastGraph (NNP backend) -- and its own
// energy partial, and partials are combined serially in chunk order.
// NeighborList rows come in ascending neighbor id and the skeleton copies
// them without sorting, so a session with a stale skin list walks pairs in
// exactly the order a fresh rebuild would -- trajectories are bit-identical
// across thread counts AND across skin settings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "md/potential.hpp"
#include "md/system.hpp"

namespace dpho::md {

/// Shared knobs of a persistent evaluation session (reference or NNP).
struct SessionOptions {
  /// Verlet skin in Angstrom; clamped down so cutoff + skin fits the box.
  /// 0 rebuilds the topology every step.
  double skin = 0.8;
  /// Target atoms per chunk of the fixed partition.  The partition depends
  /// only on the atom count (never on the thread count), which is what keeps
  /// trajectories bit-identical at any parallelism.
  std::size_t chunk_atoms = 64;
  std::size_t max_chunks = 16;
  NeighborBuild neighbor_build = NeighborBuild::kAuto;
  /// Borrowed worker pool for the force chunks and the neighbor-list build;
  /// nullptr runs both on the calling thread.  The pool affects wall-clock
  /// only, never results.
  hpc::ThreadPool* pool = nullptr;
};

/// Stateful force evaluator bound to one system (fixed atom count, types and
/// box).  compute() is the per-step entry point of the MD loop.
class PotentialSession {
 public:
  virtual ~PotentialSession() = default;

  /// Evaluates energy and forces at `state`'s positions, writing forces into
  /// the caller-owned span (size == state.size()).  Zero heap allocations in
  /// steady state.  Throws ValueError if the state's size or box does not
  /// match the system the session was warmed on.
  virtual double compute(const SystemState& state, std::span<Vec3> forces) = 0;

  /// True interaction cutoff in Angstrom.
  virtual double cutoff() const = 0;
  /// Actual (clamped) Verlet skin; meaningful after the first compute().
  virtual double skin() const = 0;
  /// Number of compute() calls so far.
  virtual std::size_t steps() const = 0;
  /// Number of Verlet rebuilds so far (rebuilds < steps once the skin engages).
  virtual std::size_t neighbor_rebuilds() const = 0;
};

/// PotentialSession over the classical ReferencePotential.
///
/// Forces use the full-neighbor form: every pair is evaluated at both
/// centers (half energy weight each), so a chunk owns all writes to its own
/// atoms' forces and needs no cross-chunk reduction buffers.
class ReferenceSession final : public PotentialSession {
 public:
  explicit ReferenceSession(const ReferencePotential& potential,
                            const SessionOptions& options = {});

  double compute(const SystemState& state, std::span<Vec3> forces) override;
  double cutoff() const override { return potential_.cutoff(); }
  double skin() const override { return skin_; }
  std::size_t steps() const override { return steps_; }
  std::size_t neighbor_rebuilds() const override;

  std::size_t num_chunks() const { return num_chunks_; }

 private:
  void initialize(const SystemState& state);
  void rebuild_skeleton(const NeighborList& list);
  void eval_chunk(std::size_t c, const SystemState& state,
                  std::span<Vec3> forces);

  ReferencePotential potential_;
  SessionOptions options_;
  double skin_ = 0.0;
  Box box_{1.0};
  std::size_t num_atoms_ = 0;
  bool initialized_ = false;
  std::optional<VerletList> verlet_;
  std::size_t seen_rebuilds_ = 0;
  std::size_t steps_ = 0;

  // Fixed chunk partition (function of N only).
  std::size_t num_chunks_ = 1;
  std::vector<std::size_t> chunk_begin_;  // num_chunks_ + 1
  std::vector<double> chunk_energy_;

  // Candidate skeleton: per-atom neighbor ids copied from the Verlet list,
  // ascending (canonical order; see file comment).  Rebuilt on skin triggers.
  std::vector<std::size_t> skel_offsets_;  // num_atoms_ + 1
  std::vector<std::uint32_t> skel_index_;
};

/// Splits [0, num_atoms) into the session chunk partition; shared by the
/// reference and NNP sessions so both backends chunk identically.
std::vector<std::size_t> make_chunk_partition(std::size_t num_atoms,
                                              const SessionOptions& options);

}  // namespace dpho::md
