#include "storage/buffer_cache.h"

#include <string>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::storage {
namespace {

obs::Counter* const g_hits =
    obs::GlobalMetrics().RegisterCounter("storage.buffer_cache.hits");
obs::Counter* const g_misses =
    obs::GlobalMetrics().RegisterCounter("storage.buffer_cache.misses");
obs::Counter* const g_evictions =
    obs::GlobalMetrics().RegisterCounter("storage.buffer_cache.evictions");

}  // namespace

using Guard = util::RankedLockGuard;

BufferCache::BufferCache(std::size_t capacity_pages)
    : capacity_(capacity_pages) {
  PROCSIM_CHECK_GT(capacity_pages, 0u);
}

bool BufferCache::Touch(uint32_t page_id) {
  Guard guard(latch_);
  const auto it = frames_.find(page_id);
  const bool hit = it != frames_.end();
  if (hit) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    g_hits->Add();
  } else {
    ++misses_;
    g_misses->Add();
    if (frames_.size() >= capacity_) {
      frames_.erase(lru_.back());
      lru_.pop_back();
      g_evictions->Add();
    }
    lru_.push_front(page_id);
    frames_.emplace(page_id, lru_.begin());
  }
  PROCSIM_AUDIT_OK(CheckConsistencyLocked());
  return hit;
}

bool BufferCache::Contains(uint32_t page_id) const {
  Guard guard(latch_);
  return frames_.contains(page_id);
}

std::size_t BufferCache::size() const {
  Guard guard(latch_);
  return frames_.size();
}

uint64_t BufferCache::hits() const {
  Guard guard(latch_);
  return hits_;
}

uint64_t BufferCache::misses() const {
  Guard guard(latch_);
  return misses_;
}

Status BufferCache::CheckConsistency() const {
  Guard guard(latch_);
  return CheckConsistencyLocked();
}

Status BufferCache::CheckConsistencyLocked() const {
  if (frames_.size() > capacity_) {
    return Status::Internal("buffer cache over capacity: " +
                            std::to_string(frames_.size()) + " > " +
                            std::to_string(capacity_));
  }
  if (frames_.size() != lru_.size()) {
    return Status::Internal("buffer cache frame map and LRU list disagree: " +
                            std::to_string(frames_.size()) + " frames vs " +
                            std::to_string(lru_.size()) + " LRU entries");
  }
  for (const auto& [page_id, position] : frames_) {
    if (*position != page_id) {
      return Status::Internal("frame for page " + std::to_string(page_id) +
                              " points at LRU entry " +
                              std::to_string(*position));
    }
  }
  return Status::OK();
}

}  // namespace procsim::storage
