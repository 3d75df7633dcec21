// ThreadScratch: one slot per (thread, owner instance), no locking on the
// hot path.  These tests pin the contract the trainer's analytic workspaces
// rely on: the same thread gets the same object back on every call, distinct
// owners never alias, and distinct threads never alias -- and the lifetime
// contract the serving cache relies on: a destroyed owner frees every
// thread's slot, and a new owner at a reused address starts fresh.
#include "hpc/scratch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "hpc/thread_pool.hpp"

namespace dpho::hpc {
namespace {

struct Slot {
  int value = 0;
};

/// A slot that counts its live instances.
struct Counted {
  static std::atomic<int> live;
  Counted() { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  int value = 0;
};
std::atomic<int> Counted::live{0};

TEST(ThreadScratch, SameThreadGetsSamePersistentSlot) {
  ThreadScratch<Slot> scratch;
  Slot& first = scratch.local();
  EXPECT_EQ(first.value, 0);  // default-constructed on first use
  first.value = 42;
  Slot& second = scratch.local();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.value, 42);
}

TEST(ThreadScratch, DistinctOwnersGetDistinctSlots) {
  ThreadScratch<Slot> a;
  ThreadScratch<Slot> b;
  a.local().value = 1;
  b.local().value = 2;
  EXPECT_NE(&a.local(), &b.local());
  EXPECT_EQ(a.local().value, 1);
  EXPECT_EQ(b.local().value, 2);
}

TEST(ThreadScratch, DistinctThreadsGetDistinctSlots) {
  ThreadScratch<Slot> scratch;
  scratch.local().value = 7;

  constexpr int kThreads = 4;
  std::vector<Slot*> seen(kThreads, nullptr);
  // The barrier keeps every thread running until all pointers have been
  // recorded, so the aliasing check compares slots that are all in use.
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scratch, &seen, &sync, t] {
      Slot& slot = scratch.local();
      EXPECT_EQ(slot.value, 0);  // fresh per thread, not the main thread's 7
      slot.value = 100 + t;
      // Repeated calls on the same thread stay stable.
      EXPECT_EQ(&scratch.local(), &slot);
      EXPECT_EQ(scratch.local().value, 100 + t);
      seen[t] = &slot;
      sync.arrive_and_wait();
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<Slot*> distinct(seen.begin(), seen.end());
  distinct.insert(&scratch.local());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads) + 1);
  EXPECT_EQ(scratch.local().value, 7);  // main thread's slot untouched
}

TEST(ThreadScratch, WorkerThreadsSeeEveryOwnerIndependently) {
  ThreadScratch<Slot> a;
  ThreadScratch<Slot> b;
  std::thread worker([&a, &b] {
    a.local().value = 10;
    b.local().value = 20;
    EXPECT_NE(&a.local(), &b.local());
    EXPECT_EQ(a.local().value, 10);
    EXPECT_EQ(b.local().value, 20);
  });
  worker.join();
  EXPECT_EQ(a.local().value, 0);
  EXPECT_EQ(b.local().value, 0);
}

TEST(ThreadScratch, DestroyedOwnersFreeEveryThreadsSlot) {
  ASSERT_EQ(Counted::live.load(), 0);
  ThreadPool pool(4);
  for (int round = 0; round < 6; ++round) {
    auto owner = std::make_unique<ThreadScratch<Counted>>();
    pool.parallel_for(64, [&](std::size_t) { ++owner->local().value; });
    owner->local().value = 1;  // the calling thread too
    EXPECT_GE(Counted::live.load(), 1) << "round " << round;
    EXPECT_LE(Counted::live.load(), 5) << "round " << round;
    owner.reset();
    EXPECT_EQ(Counted::live.load(), 0) << "round " << round;
  }
  // Live owners keep their slots; only the destroyed ones are freed.
  ThreadScratch<Counted> kept;
  {
    ThreadScratch<Counted> dropped;
    pool.parallel_for(16, [&](std::size_t) {
      kept.local();
      dropped.local();
    });
  }
  pool.parallel_for(16, [&](std::size_t) { kept.local(); });
  const int kept_slots = Counted::live.load();
  EXPECT_GE(kept_slots, 1);
  EXPECT_LE(kept_slots, 5);
}

TEST(ThreadScratch, NewOwnerAtReusedAddressGetsAFreshSlot) {
  alignas(ThreadScratch<Counted>) unsigned char storage[sizeof(ThreadScratch<Counted>)];
  auto* first = new (storage) ThreadScratch<Counted>();
  first->local().value = 7;
  std::thread worker([first] { first->local().value = 8; });
  worker.join();
  std::destroy_at(first);
  EXPECT_EQ(Counted::live.load(), 0);

  auto* second = new (storage) ThreadScratch<Counted>();
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  EXPECT_EQ(second->local().value, 0);  // never the destroyed owner's 7
  EXPECT_EQ(Counted::live.load(), 1);
  std::destroy_at(second);
  EXPECT_EQ(Counted::live.load(), 0);
}

}  // namespace
}  // namespace dpho::hpc
