#ifndef PROCSIM_STORAGE_PAGE_H_
#define PROCSIM_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace procsim::storage {

/// Identifies a page within a SimulatedDisk.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

/// Identifies a record: page + slot within the page.
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }
  bool operator==(const RecordId&) const = default;
  bool operator<(const RecordId& other) const {
    if (page_id != other.page_id) return page_id < other.page_id;
    return slot < other.slot;
  }
  std::string ToString() const;
};

/// Read-only bytes of one record, borrowed from its page.
using ByteView = std::span<const uint8_t>;

/// \brief A slotted data page.
///
/// Record payloads live in a fixed-capacity arena; a slot directory maps
/// stable slot numbers to payload extents.  Deleted slots are tombstoned
/// (offset 0) and their space is reclaimed by compaction; slot numbers are
/// stable across deletes so RecordIds held in indexes stay valid.
///
/// Capacity accounting counts payload bytes only (slot/header metadata is
/// free), so a B = 4000-byte page holds exactly 40 of the paper's S =
/// 100-byte tuples — matching the analytic model's blocking factor B/S.
/// The page size is a constructor parameter rather than a compile-time
/// constant so experiments can vary it.
class Page {
 public:
  explicit Page(uint32_t page_size);

  uint32_t page_size() const { return page_size_; }

  /// Number of live (non-tombstoned) records.
  uint16_t live_count() const { return live_count_; }
  /// Number of slots, including tombstones.
  uint16_t slot_count() const { return static_cast<uint16_t>(slots_.size()); }

  /// Bytes available for a new record (including its slot entry), after
  /// compaction if necessary.
  uint32_t FreeSpace() const;

  /// True if a record of `size` bytes fits.
  bool Fits(uint32_t size) const;

  /// Inserts a record; returns its slot, or OutOfRange if it cannot fit.
  Result<uint16_t> Insert(const uint8_t* data, uint32_t size);

  /// The bytes of the record in `slot`, without copying them; NotFound if
  /// tombstoned or out of range.  The view stays valid until the page is
  /// next written (Insert, Update or Delete of any slot): never hold one
  /// across a write to the same page.
  Result<ByteView> View(uint16_t slot) const;

  /// Overwrites the record in `slot`.  The new payload may have a different
  /// size; fails with OutOfRange if the page cannot hold it.
  Status Update(uint16_t slot, const uint8_t* data, uint32_t size);

  /// Tombstones the record in `slot`.
  Status Delete(uint16_t slot);

  /// True if `slot` holds a live record.
  bool IsLive(uint16_t slot) const;

  /// Serializes the page (header + slot directory + payloads).
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a page from Serialize() output.
  static Result<Page> Deserialize(const std::vector<uint8_t>& bytes);

  /// Verifies the slot directory and free-space accounting: live extents lie
  /// inside the payload arena and do not overlap, the live count matches the
  /// directory, and used bytes never exceed the page size.
  Status CheckConsistency() const;

 private:
  struct Slot {
    uint32_t offset = 0;
    uint32_t size = 0;
    bool live = false;
  };

  /// Rewrites payloads contiguously at the back to defragment free space.
  void Compact();

  uint32_t BytesUsed() const;

  uint32_t page_size_;
  uint16_t live_count_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint8_t> heap_;  ///< payload arena, size == page_size_
  uint32_t free_end_;          ///< payloads occupy [free_end_, page_size_)
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_PAGE_H_
