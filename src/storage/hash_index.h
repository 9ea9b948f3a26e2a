#ifndef PROCSIM_STORAGE_HASH_INDEX_H_
#define PROCSIM_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "storage/disk.h"
#include "storage/page.h"
#include "util/status.h"

namespace procsim::storage {

/// \brief A page-backed static hash index mapping int64 keys to RecordIds.
///
/// This realizes the paper's "hashed primary index" on R2.a and R3.c.
/// Buckets are disk pages holding sorted (key, rid) entries; a bucket that
/// overflows chains to an overflow page.  A point probe reads the bucket
/// page (plus any overflow pages), which is the one-page-per-probe cost the
/// paper's Yao-based analysis assumes when bucket chains are short.
///
/// The bucket count is chosen at construction from the expected number of
/// entries so that chains stay short; the structure does not rehash.
///
/// A bucket page holds one record, read in place through Page::View:
/// u32 n, n x (i64 key, u32 page, u16 slot), u32 overflow.
class HashIndex {
 public:
  /// \param disk             backing store; must outlive the index
  /// \param expected_entries sizing hint; bucket count is chosen so the
  ///                         expected chain length stays below one page
  /// \param entry_bytes      bytes charged per entry (paper's d)
  HashIndex(SimulatedDisk* disk, std::size_t expected_entries,
            uint32_t entry_bytes);

  /// Inserts (key, rid); AlreadyExists if that exact pair is present.
  Status Insert(int64_t key, RecordId rid);

  /// Removes (key, rid); NotFound if absent.
  Status Delete(int64_t key, RecordId rid);

  /// All RecordIds with exactly `key`.
  Result<std::vector<RecordId>> Search(int64_t key) const;

  std::size_t entry_count() const { return entry_count_; }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  class BucketView;  // a bucket read in place from its page bytes

  std::size_t BucketIndexFor(int64_t key) const;
  /// Reads the bucket in `page_id` (one ReadPage charge) without copying it.
  Result<BucketView> ViewBucket(PageId page_id) const;
  /// Overwrites the bucket in `page_id` with `image` (ReadPage + MarkDirty).
  Status StoreBucket(PageId page_id, const std::vector<uint8_t>& image);
  PageId AllocateBucket(const std::vector<uint8_t>& image);

  SimulatedDisk* disk_;
  uint32_t capacity_per_page_;
  std::vector<PageId> buckets_;  ///< primary bucket pages
  std::size_t entry_count_ = 0;
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_HASH_INDEX_H_
