#ifndef PROCSIM_STORAGE_DISK_H_
#define PROCSIM_STORAGE_DISK_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <set>

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
/// (each concurrent session dedups and un-meters only its own operation).
/// The page directory is a two-level table of doubling chunks of atomic
/// page pointers; a chunk never moves once allocated, so ReadPage, MarkDirty
/// and IsLive look a page up with acquire loads and take no latch, while
/// AllocatePage and FreePage serialize on a kPageTable latch and publish
/// with release stores.  Page *contents* are protected by the engine's
/// coarse database latch (writers run exclusive).
class SimulatedDisk {
 public:
  /// \param page_size  bytes per page (the paper's B)
  /// \param meter      cost sink; must outlive the disk; null charges
  ///                   nothing (MeteringGuard un-meters a scope instead)
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
  /// Page::resident_bytes).  Reads page contents, which no latch guards:
  /// call only while the disk is quiescent.
  std::size_t resident_bytes() const;
  /// True if `page_id` was allocated and has not been freed.
  bool IsLive(PageId page_id) const;

  /// False while a MeteringGuard on this disk is open on the calling
  /// thread.  Bulk-loading the database before an experiment is free, as in
  /// the paper.
  bool metering_enabled() const;

  CostMeter* meter() const { return meter_; }

  /// Allocates a fresh empty page (charged as one write when metering).
  /// Aborts if every PageId below kInvalidPageId has been handed out.
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
  /// structure exclusively: ReadPage hands out a Page* that nothing pins.
  /// NotFound if the page is not live.
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
  const BufferCache* buffer_cache() const {
    return cache_.has_value() ? &*cache_ : nullptr;
  }

  /// The page table's chunks double in size: chunk k holds
  /// kFirstChunkPages << k ids, so kChunks of them cover every PageId.
  static constexpr std::size_t kFirstChunkPages = 16384;
  static constexpr std::size_t kChunks = 19;

 private:
  using PageSlot = std::atomic<Page*>;
  /// Where a page id's slot lives: chunk and index within it.
  struct SlotIndex {
    std::size_t chunk;
    std::size_t offset;
  };
  static SlotIndex Locate(PageId page_id);

  /// The live page `page_id` names, or null; one acquire load per level.
  Page* Lookup(PageId page_id) const;
  void ChargeRead(PageId page_id);
  void ChargeWrite(PageId page_id);

  const uint32_t page_size_;
  CostMeter* const meter_;
  // Serializes AllocatePage and FreePage; lookups take no latch.
  mutable util::RankedMutex page_table_latch_{
      util::LatchRank::kPageTable, "SimulatedDisk::page_table"};
  // The directory: slot Locate(id) of chunks_ is page id's Page, null once
  // freed.  A chunk is allocated as raw memory on the first id it covers
  // and freed only by the destructor; a slot is constructed when
  // AllocatePage hands its id out, so a chunk touches only the memory of
  // ids in use.  AllocatePage publishes a slot by
  // the release store of page_count_, and lookups read only slots below it.
  // FreePage clears a slot with an atomic exchange.  Both write under the
  // latch.  Page *contents* are ordered by the engine's database latch (see
  // class comment).
  std::atomic<PageSlot*> chunks_[kChunks] = {};
  std::atomic<std::size_t> page_count_{0};
  std::atomic<std::size_t> live_pages_{0};
  // procsim-lint: allow(unguarded(cache_)) because the optional is engaged only while quiescent; the BufferCache inside has its own latch
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
