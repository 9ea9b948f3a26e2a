#ifndef PROCSIM_STORAGE_HEAP_FILE_H_
#define PROCSIM_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "storage/disk.h"
#include "storage/page.h"
#include "util/status.h"

namespace procsim::storage {

/// \brief A heap file: an unordered collection of records spread over a set
/// of pages on a SimulatedDisk.
///
/// Records are appended to the last page with room (append-order preserving,
/// which the relational layer relies on to realize a *clustered* primary
/// organization by bulk-loading in key order).  RecordIds are stable until
/// the record is deleted.
class HeapFile {
 public:
  explicit HeapFile(SimulatedDisk* disk);

  /// Inserts a record, allocating a new page if needed.  The record's
  /// logical size, which its page accounts for, is the larger of
  /// `record.size()` and `logical_size` (the paper's S for fixed-width
  /// tuples); the page stores only `record` (see Page::Insert).
  Result<RecordId> Insert(std::span<const uint8_t> record,
                          std::size_t logical_size = 0);

  /// The bytes of the record at `rid`, read in place: valid until its page
  /// is next written (see Page::View).
  Result<ByteView> Read(RecordId rid) const;

  /// Overwrites the record at `rid` in place, with its logical size taken as
  /// in Insert.  Fails if the new record no longer fits on its page
  /// (fixed-width records never hit this).
  Status Update(RecordId rid, std::span<const uint8_t> record,
                std::size_t logical_size = 0);

  /// Deletes the record at `rid`.
  Status Delete(RecordId rid);

  /// Calls `fn(rid, bytes)` for every live record in page/slot order;
  /// charges one read per page.  `bytes` views the page and is valid only
  /// during the call.  Iteration stops early if `fn` returns false.
  Status Scan(const std::function<bool(RecordId, ByteView)>& fn) const;

  /// Frees every page of the file on its disk (SimulatedDisk::FreePage)
  /// and leaves the file empty and reusable.  Charges nothing; every
  /// RecordId into the file goes stale.
  Status FreePages();

  std::size_t record_count() const { return record_count_; }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Verifies the file against its pages (un-metered): the page list holds
  /// no duplicates, every page passes Page::CheckConsistency, and the live
  /// records on the pages sum to record_count().
  Status CheckConsistency() const;

 private:
  SimulatedDisk* disk_;
  std::vector<PageId> pages_;
  std::size_t record_count_ = 0;
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_HEAP_FILE_H_
