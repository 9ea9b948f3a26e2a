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
/// A slot directory maps stable slot numbers to records; slot numbers stay
/// stable across deletes (a deleted slot becomes a tombstone that a later
/// insert reuses), so RecordIds held in indexes stay valid.
///
/// Each record has a *logical size* and *stored bytes*.  The logical size is
/// what the record occupies in the paper's model: capacity accounting
/// (FreeSpace, Fits, the Update grow rule) counts logical payload bytes only
/// (slot/header metadata is free), so a B = 4000-byte page holds exactly 40
/// of the paper's S = 100-byte tuples, matching the analytic model's
/// blocking factor B/S.  The stored bytes are a prefix of the logical
/// record, the rest being zero padding that is accounted but never kept:
/// View returns the stored bytes, and Serialize writes the zeros back out,
/// so a page image is the same whether or not padding is stored.
///
/// Stored bytes live in an arena that grows to fit: a padded record's first
/// append reserves room for a page full of records like it, and otherwise
/// the arena doubles as needed, up to the page size.  Deletes and updates
/// leave garbage in it, which is compacted away once it reaches half the
/// arena or an append would otherwise grow the arena.  The page
/// size is a constructor parameter rather than a compile-time constant so
/// experiments can vary it.
class Page {
 public:
  explicit Page(uint32_t page_size);

  uint32_t page_size() const { return page_size_; }

  /// Number of live (non-tombstoned) records.
  uint16_t live_count() const { return live_count_; }
  /// Number of slots, including tombstones.
  uint16_t slot_count() const { return static_cast<uint16_t>(slots_.size()); }

  /// Logical bytes available for a new record (slot entries are free).
  uint32_t FreeSpace() const { return page_size_ - used_; }

  /// True if a record of logical size `size` fits.
  bool Fits(uint32_t size) const { return size <= FreeSpace(); }

  /// Inserts a record of logical size `size` whose first `stored` bytes are
  /// `data` and whose remaining `size - stored` bytes are zero; keeps only
  /// the `stored` bytes.  Returns its slot, or OutOfRange if it cannot fit.
  Result<uint16_t> Insert(const uint8_t* data, uint32_t stored, uint32_t size);
  /// Inserts a record that stores all of its `size` bytes.
  Result<uint16_t> Insert(const uint8_t* data, uint32_t size) {
    return Insert(data, size, size);
  }

  /// The stored bytes of the record in `slot` (its logical image without
  /// the zero tail), without copying them; NotFound if tombstoned or out of
  /// range.  The view stays valid until the page is next written (Insert,
  /// Update or Delete of any slot): never hold one across a write to the
  /// same page.
  Result<ByteView> View(uint16_t slot) const;

  /// Overwrites the record in `slot` with one of logical size `size` whose
  /// stored bytes are `data[0, stored)` (see Insert).  The new record may
  /// have a different size; fails with OutOfRange if the page cannot hold
  /// it, leaving the old record in place.
  Status Update(uint16_t slot, const uint8_t* data, uint32_t stored,
                uint32_t size);
  /// Overwrites the record in `slot` with one that stores all `size` bytes.
  Status Update(uint16_t slot, const uint8_t* data, uint32_t size) {
    return Update(slot, data, size, size);
  }

  /// Tombstones the record in `slot`.
  Status Delete(uint16_t slot);

  /// True if `slot` holds a live record.
  bool IsLive(uint16_t slot) const;

  /// Serializes the page: header, slot directory (logical size and
  /// liveness per slot), then each live record's logical image (stored
  /// bytes plus zero tail) in slot order.
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a page from Serialize() output.  The image cannot tell
  /// padding from data, so the rebuilt page stores every logical byte.
  static Result<Page> Deserialize(const std::vector<uint8_t>& bytes);

  /// Bytes of memory the page holds for record payloads (its arena's
  /// capacity); the slot directory is not counted.
  std::size_t resident_bytes() const { return arena_.capacity(); }

  /// Drops the arena's garbage and releases its capacity beyond the live
  /// stored bytes.  For a page that just shrank for good, such as the left
  /// half of a B-tree split; the page image does not change.
  void ShrinkToFit();

  /// Verifies the slot directory and the accounting: each live record
  /// stores no more than its logical size, live extents lie inside the
  /// arena and do not overlap, the garbage count covers the rest of the
  /// arena, the live count matches the directory, the running count of
  /// logical bytes equals their sum, and that sum never exceeds the page
  /// size.
  Status CheckConsistency() const;

 private:
  struct Slot {
    uint32_t offset = 0;  ///< start of the stored bytes in arena_
    uint32_t stored = 0;  ///< bytes kept in arena_
    uint32_t size = 0;    ///< logical size, counted against the page
    bool live = false;
  };

  /// Appends the `stored` bytes of a record of logical size `size` to the
  /// arena and returns their offset.
  uint32_t Append(const uint8_t* data, uint32_t stored, uint32_t size);
  /// Compacts if garbage has reached half the arena.
  void MaybeCompact();
  /// Moves live stored bytes to the front of the arena, dropping garbage.
  void Compact();

  uint32_t page_size_;
  uint16_t live_count_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint8_t> arena_;  ///< stored bytes of live records + garbage
  uint32_t garbage_ = 0;        ///< bytes of arena_ no live slot owns
  uint32_t used_ = 0;           ///< logical bytes of the live records
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_PAGE_H_
