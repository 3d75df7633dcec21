// Bounded LRU cache of loaded potentials over a dp::ModelArchive.
//
// A Pareto front can hold more trained models than fit comfortably in memory
// at serving time (each loaded model pins weights plus per-thread evaluation
// arenas).  The cache keeps at most `capacity` potentials resident, loads on
// miss from the archive's model artifact, and evicts the least recently used
// entry.
// get() hands out shared_ptr<const Potential>, so an evicted model stays
// alive until every in-flight request holding it finishes -- eviction never
// invalidates a running evaluation.
//
// Thread-safe: workers call get() concurrently; loads happen under the lock
// (simple and correct: a load reads the small JSON header and copies the raw
// parameter blob, under 20 ms at paper widths, so a lookup waits about that
// long behind a miss).  Counts hits, misses and evictions into serve.cache_*
// metrics and locally for tests.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "dp/archive.hpp"

namespace dpho::serve {

class ModelCache {
 public:
  /// `archive` must outlive the cache.  capacity >= 1 (throws ValueError).
  ModelCache(const dp::ModelArchive& archive, std::size_t capacity);

  /// The potential behind `id`, loading and/or evicting as needed.  Throws
  /// util::ValueError for an id the archive does not hold.
  std::shared_ptr<const dp::Potential> get(const std::string& id);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  /// hits / (hits + misses); 0 before the first lookup.
  double hit_rate() const;

 private:
  const dp::ModelArchive& archive_;
  std::size_t capacity_;

  mutable std::mutex mutex_;
  // Most recently used at the front; size() <= capacity_.
  std::list<std::pair<std::string, std::shared_ptr<const dp::Potential>>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dpho::serve
