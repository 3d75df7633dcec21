// Per-thread scratch slots for data-parallel hot loops.
//
// The trainer's gradient workers each need a private arena (analytic-kernel
// workspaces) that survives across work items so the steady state performs
// no allocations.  A bare `static thread_local` gives one slot per thread
// *per call site*, shared by every instance in the process; ThreadScratch
// gives one slot per (thread, owner instance).  The hot path takes no lock:
// each thread keeps its own map from owner to slot, and the owner's mutex
// is taken only when a thread creates its slot.
//
// Lifetime: the owner keeps every slot it hands out and frees them all when
// it is destroyed, so a serving cache that loads and drops models leaves no
// workspaces behind on its worker threads.  Threads key their maps by a
// process-unique owner id, never by address, so a new owner at a reused
// address never sees a destroyed owner's slot; a thread drops its map
// entries for destroyed owners the next time it creates a slot.  Slots live
// until their owner dies, not until their thread exits, so owners should be
// used from long-lived threads (pool workers), and local() must not race
// with the owner's destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dpho::hpc {

template <typename T>
class ThreadScratch {
 public:
  ThreadScratch() = default;
  ThreadScratch(const ThreadScratch&) = delete;
  ThreadScratch& operator=(const ThreadScratch&) = delete;

  /// The calling thread's slot for this owner; default-constructed on first
  /// use by each thread.
  T& local() const {
    std::unordered_map<std::uint64_t, Entry>& slots = thread_slots();
    const auto found = slots.find(id_);
    if (found != slots.end()) return *found->second.slot;
    std::erase_if(slots, [](const auto& entry) { return entry.second.owner.expired(); });
    auto slot = std::make_unique<T>();
    T& ref = *slot;
    {
      const std::scoped_lock lock(mutex_);
      owned_.push_back(std::move(slot));
    }
    slots.emplace(id_, Entry{&ref, alive_});
    return ref;
  }

 private:
  struct Entry {
    T* slot = nullptr;
    std::weak_ptr<const int> owner;  // expires with the owner
  };

  static std::unordered_map<std::uint64_t, Entry>& thread_slots() {
    thread_local std::unordered_map<std::uint64_t, Entry> slots;
    return slots;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  const std::uint64_t id_ = next_id();
  const std::shared_ptr<const int> alive_ = std::make_shared<const int>(0);
  mutable std::mutex mutex_;
  mutable std::vector<std::unique_ptr<T>> owned_;
};

}  // namespace dpho::hpc
