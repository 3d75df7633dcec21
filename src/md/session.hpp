// Persistent MD evaluation sessions: the zero-allocation force hot path.
//
// A PotentialSession owns everything an MD run reuses across steps -- the
// Verlet-skin neighbor list, its per-pair workspace, and all force
// workspace -- so a steady-state step, and a rebuild step once warmed,
// performs zero heap allocations (the same contract dp's training kernels
// set in DESIGN.md section 8).  Topology is rebuilt only on skin triggers,
// on the session's pool; between rebuilds each step recomputes every
// displacement in place from the *stale pair identities* (the Verlet
// guarantee: identities complete, distances outdated).
//
// Determinism contract: results are a pure function of (potential, options,
// state) -- never of the thread count.  The atom range is split into a fixed
// chunk partition (derived from N alone); chunks may run on any pool thread,
// but each chunk writes only its own outputs -- its own atoms' pair terms
// and forces (reference backend) or its own full-3N adjoint buffer, filled
// tile by tile by dp::FastGraph (NNP backend) -- and its own energy
// partial, and partials are combined serially in chunk order.
// NeighborList rows come in ascending neighbor id and the sessions walk
// them in that order, so a session with a stale skin list walks pairs in
// exactly the order a fresh rebuild would -- trajectories are bit-identical
// across thread counts AND across skin settings.
#pragma once

#include <cstddef>
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
/// Forces use the full-neighbor form with each pair's work done once.  A
/// first chunk-parallel pass walks the j > i tail of each row, evaluates
/// every in-cutoff pair from its lower id and stores, under the pair's
/// number, the force on the lower id and half the pair energy (exact zeros
/// for a pair beyond rc or at r = 0).  After the pool's barrier a second
/// pass walks every row in full and adds the stored terms, negating the
/// force for a j < i entry, so a chunk owns all writes to its own atoms'
/// forces and needs no cross-chunk reduction buffers.  The sums are bit for
/// bit those of evaluating every pair at both centers, in row order:
/// Box::displacement(a, b) is exactly -displacement(b, a) up to the sign of
/// a zero component, pair_energy_force is symmetric in its species, and
/// adding an exact zero changes no sum that starts from +0.
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
  /// One pair's share of a step, evaluated from its lower id i.
  struct PairTerm {
    Vec3 force;          // on i: d * (-F(r) / r), d = r_j - r_i
    double half_energy;  // 0.5 * E(r): each center adds half
  };

  void initialize(const SystemState& state);
  void pair_chunk(std::size_t c, const SystemState& state);
  void force_chunk(std::size_t c, std::span<Vec3> forces);
  /// Runs pass(c) for every chunk, on the pool when there is one.
  template <typename Pass>
  void for_each_chunk(Pass& pass);

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

  // The Verlet list's rows, walked in place, and one term per listed pair
  // (sized on rebuilds, rewritten every step).
  const NeighborList* list_ = nullptr;
  std::vector<PairTerm> terms_;
};

/// Splits [0, num_atoms) into the session chunk partition; shared by the
/// reference and NNP sessions so both backends chunk identically.
std::vector<std::size_t> make_chunk_partition(std::size_t num_atoms,
                                              const SessionOptions& options);

}  // namespace dpho::md
