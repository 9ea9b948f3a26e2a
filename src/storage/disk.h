#ifndef PROCSIM_STORAGE_DISK_H_
#define PROCSIM_STORAGE_DISK_H_

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "util/latch.h"
#include "storage/buffer_cache.h"
#include "storage/page.h"
#include "util/cost_meter.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::storage {

/// \brief An in-memory "disk" that charges the paper's I/O cost for every
/// page access.
///
/// Pages are held as live Page objects for speed; each ReadPage/WritePage
/// debits C2 milliseconds to the attached CostMeter.  The paper's model has
/// no buffer cache across operations, but a single query or maintenance
/// operation never re-reads a page it already touched — that is what the
/// Yao-function page-touch counts assume.  AccessScope provides exactly that
/// semantics: while a scope is open, repeated reads/writes of the same page
/// are charged once.
///
/// Concurrency: access scopes and metering disablement are *per thread*
/// (each concurrent session dedups and un-meters only its own operation),
/// the page directory is guarded by a kPageTable latch so sessions can
/// allocate and free pages while others look pages up, and page *contents*
/// are protected by the engine's coarse database latch (writers run
/// exclusive).
class SimulatedDisk {
 public:
  /// \param page_size  bytes per page (the paper's B)
  /// \param meter      cost sink; must outlive the disk; may be null for
  ///                   cost-free setup phases (see set_metering_enabled)
  SimulatedDisk(uint32_t page_size, CostMeter* meter);
  ~SimulatedDisk();

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  uint32_t page_size() const { return page_size_; }
  /// Page ids handed out so far, live or freed: ids run 0..page_count()-1.
  std::size_t page_count() const;
  /// Pages allocated and not yet freed.
  std::size_t live_page_count() const;
  /// Bytes of memory the live pages hold for record payloads (the sum of
  /// Page::resident_bytes).  Reads page contents, which the page-table latch
  /// does not guard: call only while the disk is quiescent.
  std::size_t resident_bytes() const;
  /// True if `page_id` was allocated and has not been freed.
  bool IsLive(PageId page_id) const;

  /// Enables/disables cost charging globally.  Bulk-loading the database
  /// before an experiment is free, as in the paper.  Only call while the
  /// disk is quiescent (no concurrent sessions); per-operation un-metering
  /// goes through MeteringGuard, which is thread-local.
  void set_metering_enabled(bool enabled) { metering_enabled_ = enabled; }
  bool metering_enabled() const;

  CostMeter* meter() const { return meter_; }

  /// Allocates a fresh empty page (charged as one write when metering).
  PageId AllocatePage();

  /// Returns a mutable reference to a page, charging one read.  The caller
  /// must call MarkDirty() (one write) if it modifies the page.
  Result<Page*> ReadPage(PageId page_id);

  /// Charges one page write for a previously read (and modified) page.
  Status MarkDirty(PageId page_id);

  /// Destroys a page and retires its id for good: the id is never handed
  /// out again, and ReadPage/MarkDirty on it return NotFound.  Charges
  /// nothing.  A freed id stays in an open access scope's dedup sets and in
  /// the buffer cache's LRU; since no fresh page can take the id, neither
  /// ever skips a charge a fresh page owes.  The caller must hold the owning
  /// structure exclusively: ReadPage hands out a Page* that outlives the
  /// page-table latch.  NotFound if the page is not live.
  Status FreePage(PageId page_id);

  // --- deduplicated accounting scopes -------------------------------------

  /// Opens an access scope *for the calling thread*: until EndAccessScope(),
  /// each distinct page is charged at most one read and at most one write.
  /// Scopes do not nest (per thread).
  void BeginAccessScope();
  void EndAccessScope();
  bool in_access_scope() const;

  // --- thread-local metering disablement (used by MeteringGuard) -----------

  void PushThreadMeteringDisable();
  void PopThreadMeteringDisable();

  // --- optional buffer cache (ablation; the paper's model has none) --------

  /// Attaches an LRU buffer cache of `capacity_pages` frames: reads of
  /// resident pages stop being charged; writes remain write-through
  /// (charged) and refresh residency.
  void EnableBufferCache(std::size_t capacity_pages);
  void DisableBufferCache();
  const BufferCache* buffer_cache() const {
    return cache_.has_value() ? &*cache_ : nullptr;
  }

 private:
  void ChargeRead(PageId page_id);
  void ChargeWrite(PageId page_id);

  const uint32_t page_size_;
  CostMeter* const meter_;
  // Written only while quiescent; concurrent sessions read it under the
  // engine's database latch, which provides the ordering.
  // procsim-lint: allow(unguarded(metering_enabled_)) because writes are quiescent-only; reads are ordered by the engine database latch
  bool metering_enabled_ = true;
  mutable util::RankedMutex page_table_latch_{
      util::LatchRank::kPageTable, "SimulatedDisk::page_table"};
  // The directory (which pages exist) is latched; page *contents* are
  // ordered by the engine's database latch (see class comment).  Indexed by
  // page id; a freed page leaves a null slot behind.
  std::vector<std::unique_ptr<Page>> pages_ GUARDED_BY(page_table_latch_);
  std::size_t live_pages_ GUARDED_BY(page_table_latch_) = 0;
  // procsim-lint: allow(unguarded(cache_)) because the optional is engaged/reset only while quiescent; the BufferCache inside has its own latch
  std::optional<BufferCache> cache_;
};

/// RAII helper that disables cost metering for a scope (static compilation
/// and bulk-load phases, which the paper does not charge).  The disablement
/// is thread-local: a concurrent session validating or rebuilding its own
/// structures never turns off another session's charging.
class MeteringGuard {
 public:
  explicit MeteringGuard(SimulatedDisk* disk) : disk_(disk) {
    disk_->PushThreadMeteringDisable();
  }
  ~MeteringGuard() { disk_->PopThreadMeteringDisable(); }
  MeteringGuard(const MeteringGuard&) = delete;
  MeteringGuard& operator=(const MeteringGuard&) = delete;

 private:
  SimulatedDisk* disk_;
};

/// RAII helper for SimulatedDisk access scopes.
class AccessScope {
 public:
  explicit AccessScope(SimulatedDisk* disk) : disk_(disk) {
    owns_ = !disk_->in_access_scope();
    if (owns_) disk_->BeginAccessScope();
  }
  ~AccessScope() {
    if (owns_) disk_->EndAccessScope();
  }
  AccessScope(const AccessScope&) = delete;
  AccessScope& operator=(const AccessScope&) = delete;

 private:
  SimulatedDisk* disk_;
  bool owns_;
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_DISK_H_
