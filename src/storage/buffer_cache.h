#ifndef PROCSIM_STORAGE_BUFFER_CACHE_H_
#define PROCSIM_STORAGE_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::storage {

/// \brief An LRU page-residency tracker.
///
/// The paper's 1987 cost model charges every page touch as a disk I/O — no
/// buffer cache.  This class lets the simulator relax that assumption as an
/// ablation (AB6, bench/abl_buffer_cache.cc): when attached to a
/// SimulatedDisk, a read of a resident page is free and only misses pay C2.
/// Pages are always durable in the page store and writes are write-through,
/// so the cache holds no page contents, pins or dirty bits — only which
/// page ids are resident, in recency order.
///
/// Thread safety: one internal kBufferCache-rank latch serializes the LRU
/// list, the residency map and the hit/miss counts (a read is an LRU
/// *mutation*, so even lookups latch).
class BufferCache {
 public:
  /// \param capacity_pages  number of page frames (> 0)
  explicit BufferCache(std::size_t capacity_pages);

  /// Records an access to `page_id`.  Returns true on a hit (no charge
  /// due); on a miss the page is brought in, evicting the least recently
  /// used page if full.
  bool Touch(uint32_t page_id);

  bool Contains(uint32_t page_id) const;
  std::size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

  /// Verifies internal invariants: the LRU list and residency map describe
  /// the same pages and occupancy respects capacity.
  Status CheckConsistency() const;

 private:
  Status CheckConsistencyLocked() const REQUIRES(latch_);

  const std::size_t capacity_;
  mutable util::RankedMutex latch_{
      util::LatchRank::kBufferCache, "BufferCache"};
  // Most recently used at the front.
  std::list<uint32_t> lru_ GUARDED_BY(latch_);
  // Resident page id -> its position in lru_.
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> frames_
      GUARDED_BY(latch_);
  uint64_t hits_ GUARDED_BY(latch_) = 0;
  uint64_t misses_ GUARDED_BY(latch_) = 0;
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_BUFFER_CACHE_H_
