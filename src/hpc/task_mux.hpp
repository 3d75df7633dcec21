// Fair-share multiplexing of many streaming tenants over ONE ClusterSession.
//
// The dpho_sched daemon runs N independent steady-state HPO runs against a
// single shared worker pool.  Each tenant opens a *slot*; the mux gives it a
// disjoint task-id namespace ([slot*stride, (slot+1)*stride)), queues its
// submissions, and forwards them to the shared session under weighted
// round-robin so no tenant can starve another by submitting faster.  The
// per-tenant contracts the single-run path guarantees survive multiplexing:
//
//   * Ordered delivery: a tenant's completions come back in ascending local
//     task id (the engine's determinism contract), enforced by draining the
//     shared session with stream_try_next() per namespace and buffering
//     out-of-order arrivals in per-slot ready maps.
//   * Fairness: one forward decision at a time, rotating over slots with
//     `weight` forwards per visit (weighted round robin).  Between two
//     consecutive forwards of an eligible slot at most sum(other weights)
//     foreign forwards happen -- the bounded-dispatch-gap property the sched
//     tests pin down.
//   * Capacity: forwarded-but-unresolved tasks never exceed the live worker
//     count, so the shared backend's own id-ordered dispatch cannot build a
//     backlog that would bias dispatch toward low slots.
//   * Recovery: slot_snapshot()/slot_restore() scope FarmSnapshot recovery
//     to one tenant; resolved-but-untaken completions survive a scheduler
//     crash verbatim, unresolved ones are reported back for re-submission.
//
// MuxSession adapts one slot to the ClusterSession API, so an unmodified
// core::EvolutionEngine drives its share of the pool exactly as it would
// drive a private cluster.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "hpc/cluster_session.hpp"

namespace dpho::hpc {

struct TaskMuxConfig {
  /// Width of each slot's id namespace; a tenant may submit at most this
  /// many tasks over its lifetime.  Kept far below 2^53 so namespaced ids
  /// survive JSON's double representation.
  std::size_t slot_stride = std::size_t{1} << 20;
};

/// Per-tenant scheduling knobs.
struct SlotOptions {
  std::size_t weight = 1;         // weighted-round-robin share (>= 1)
  /// Tasks this slot may have forwarded-but-unfinished at the shared backend
  /// at once; 0 = no per-slot cap (the global capacity gate still applies).
  std::size_t max_in_flight = 0;
};

class TaskMux {
 public:
  /// Opens the shared session (stream_begin) immediately; `shared` must
  /// outlive the mux.
  explicit TaskMux(ClusterSession& shared, TaskMuxConfig config = {});

  /// Registers a tenant and returns its slot index.  Slots are never reused:
  /// a retired slot's namespace stays burned so late completions of a
  /// cancelled run can never collide with a live one.
  std::size_t open_slot(const SlotOptions& options);

  /// Retires a slot: queued submissions are dropped and every future
  /// completion in its namespace is drained and discarded.  Idempotent.
  void close_slot(std::size_t slot);
  bool slot_open(std::size_t slot) const;

  /// Queues one task (spec.id is slot-local) for weighted-round-robin
  /// forwarding.  Throws when the slot is closed, the id exceeds the stride,
  /// or the id was already submitted.
  void submit(std::size_t slot, const TaskSpec& spec, const RemoteWorkFn& work);

  /// Delivers the slot's next in-order completion if it is ready; local ids.
  std::optional<StreamCompletion> try_take(std::size_t slot);

  /// One scheduling round: drive the shared backend for up to `wait_seconds`,
  /// drain deliverable completions into the per-slot ready maps, then forward
  /// queued tasks under WRR while capacity remains.
  void pump(double wait_seconds);

  // Per-slot introspection (status replies, metrics, tests).
  std::size_t slot_undelivered(std::size_t slot) const;
  std::size_t slot_queued(std::size_t slot) const;
  std::size_t slot_outstanding(std::size_t slot) const;
  double slot_now(std::size_t slot) const;
  const std::vector<StreamCompletion>& slot_delivered(std::size_t slot) const;

  /// Scopes FarmSnapshot to one tenant: resolved-but-untaken completions are
  /// embedded verbatim; queued or unresolved tasks get the unresolved
  /// sentinel so slot_restore() reports them back for re-submission.
  FarmSnapshot slot_snapshot(std::size_t slot) const;
  /// Adopts a tenant snapshot into a freshly opened slot and returns the
  /// lost (must re-submit) local ids, ascending.
  std::vector<std::size_t> slot_restore(std::size_t slot,
                                        const FarmSnapshot& snapshot);

  ClusterSession& shared() { return shared_; }
  const ClusterSession& shared() const { return shared_; }
  std::size_t num_slots() const { return slots_.size(); }
  std::size_t slot_stride() const { return config_.slot_stride; }

  /// The slot of every forward decision, in order -- the fairness witness the
  /// property tests assert over.
  const std::vector<std::size_t>& forward_log() const { return forward_log_; }

 private:
  struct Pending {
    TaskSpec spec;  // slot-local id
    RemoteWorkFn work;
    std::chrono::steady_clock::time_point queued_at;
  };

  struct Slot {
    bool open = true;
    std::size_t weight = 1;
    std::size_t max_in_flight = 0;  // 0 = uncapped
    std::deque<Pending> queue;      // submitted, not yet forwarded
    std::set<std::size_t> undelivered;            // local ids awaiting take
    std::set<std::size_t> submitted;              // all local ids ever seen
    std::map<std::size_t, StreamCompletion> ready;  // local id -> completion
    std::vector<StreamCompletion> delivered;      // taken, local ids
    std::size_t outstanding = 0;    // forwarded to shared, not yet drained
    double now_minutes = 0.0;       // shared session time at last take
  };

  std::size_t lo(std::size_t slot) const { return slot * config_.slot_stride; }
  std::size_t hi(std::size_t slot) const {
    return (slot + 1) * config_.slot_stride;
  }
  bool eligible(const Slot& slot) const;
  std::size_t outstanding_total() const;
  void drain_shared();
  void forward_ready();
  void forward_one(std::size_t slot);
  const Slot& at(std::size_t slot) const;
  Slot& at(std::size_t slot);

  ClusterSession& shared_;
  TaskMuxConfig config_;
  std::vector<Slot> slots_;
  std::size_t rr_cursor_ = 0;
  /// Unspent forwards of the slot under the cursor: a burst the capacity
  /// gate interrupted resumes before the rotation moves on, keeping forward
  /// shares weight-proportional even when capacity < sum of weights.
  std::size_t burst_left_ = 0;
  std::vector<std::size_t> forward_log_;
};

/// One tenant's slot behind the ClusterSession API.  Stream-only: run_batch
/// throws (the scheduler multiplexes steady-state runs).  The mux must
/// outlive the session; the destructor retires the slot.
class MuxSession final : public ClusterSession {
 public:
  MuxSession(TaskMux& mux, const SlotOptions& options);
  ~MuxSession() override;
  MuxSession(const MuxSession&) = delete;
  MuxSession& operator=(const MuxSession&) = delete;

  BatchReport run_batch(const std::vector<TaskSpec>& specs,
                        const RemoteWorkFn& local_eval) override;
  void stream_begin() override;
  void stream_submit(const TaskSpec& spec,
                     const RemoteWorkFn& local_eval) override;
  std::optional<StreamCompletion> stream_next() override;
  BatchReport stream_end() override;

  bool stream_active() const override { return active_; }
  std::size_t stream_pending() const override {
    return mux_.slot_undelivered(slot_);
  }
  double stream_now() const override { return mux_.slot_now(slot_); }
  std::size_t stream_node_failures() const override {
    return mux_.shared().stream_node_failures();
  }

  double clock_minutes() const override { return clock_minutes_; }
  double remaining_minutes() const override {
    return mux_.shared().remaining_minutes();
  }
  std::size_t live_workers() const override {
    return mux_.shared().live_workers();
  }
  std::size_t batches_run() const override { return 0; }

  FarmSnapshot snapshot() const override { return mux_.slot_snapshot(slot_); }
  std::vector<std::size_t> restore(const FarmSnapshot& snapshot) override;

  std::string backend_name() const override {
    return "mux+" + mux_.shared().backend_name();
  }

  std::size_t slot() const { return slot_; }

 private:
  TaskMux& mux_;
  std::size_t slot_;
  bool active_ = false;
  double clock_minutes_ = 0.0;
};

}  // namespace dpho::hpc
