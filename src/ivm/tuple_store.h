#ifndef PROCSIM_IVM_TUPLE_STORE_H_
#define PROCSIM_IVM_TUPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "relational/tuple.h"
#include "storage/disk.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace procsim::ivm {

/// \brief One column's index: a flat open-addressing table of postings.
///
/// A posting is a 12-byte slot {tag, rid}: the low 32 bits of a column
/// value's rel::Value::Hash and the record holding that value.  A slot whose
/// rid names kInvalidPageId is empty.  Probing is linear over a power-of-two
/// capacity, starting at the tag's home slot (a 64-bit finalizer of the
/// tag, so the home does not lean on FNV-1a's low bits alone), and the table
/// doubles before its load passes 3/4.  Erase shifts the rest of the cluster
/// back, so there are no tombstones: every posting is reachable from its
/// home slot without crossing an empty slot.  A tag is not a key —
/// different values may share one, and the caller tells them apart by
/// decoding the named record.
class PostingTable {
 public:
  /// The tag a posting keeps for a value hashing to `hash`.
  static uint32_t TagOf(std::size_t hash) {
    return static_cast<uint32_t>(hash);
  }

  /// Adds the posting (tag, rid); `rid` must be valid.
  void Insert(uint32_t tag, storage::RecordId rid);

  /// Removes the posting (tag, rid); false if the table has none.
  bool Erase(uint32_t tag, storage::RecordId rid);

  /// Calls fn(rid) for every posting whose tag is `tag`, in slot order.
  template <typename Fn>
  void ForEachWithTag(uint32_t tag, Fn&& fn) const {
    if (slots_.empty()) return;
    for (std::size_t i = HomeSlot(tag); slots_[i].rid.valid();
         i = (i + 1) & mask()) {
      if (slots_[i].tag == tag) fn(slots_[i].rid);
    }
  }

  /// Calls fn(tag, rid) for every posting, in slot order; stops at and
  /// returns the first error `fn` returns.
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.rid.valid()) PROCSIM_RETURN_IF_ERROR(fn(slot.tag, slot.rid));
    }
    return Status::OK();
  }

  /// Drops every posting and releases the slot array.
  void Clear();

  std::size_t size() const { return size_; }
  /// Slots in the array: zero or a power of two.
  std::size_t capacity() const { return slots_.size(); }
  /// The slot a probe for `tag` starts at; requires capacity() > 0.
  std::size_t HomeSlot(uint32_t tag) const;

  /// Structural self-check: the capacity is a power of two loaded at most
  /// 3/4, the occupied slots number size(), and every posting is reachable
  /// from its home slot without crossing an empty slot.
  Status CheckStructure() const;

 private:
  struct Slot {
    uint32_t tag = 0;
    storage::RecordId rid;  ///< kInvalidPageId when the slot is empty
  };
  static_assert(sizeof(Slot) == 12);

  std::size_t mask() const { return slots_.size() - 1; }
  /// Places a posting in the first empty slot of its probe sequence.
  void Place(const Slot& posting);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// \brief A page-backed bag of tuples with cheap in-memory indexes.
///
/// Used for materialized procedure results, cached values, and Rete α/β
/// memory nodes.  The SimulatedDisk pages hold the only copy of each tuple,
/// so every read of the contents and every incremental refresh charges the
/// paper's I/O costs.  Its one kind of index, a PostingTable per indexed
/// column, maps a tag of each column value's rel::Value::Hash to the record
/// ids holding it: the uncharged index part of the structure, whose named
/// records are decoded un-metered when a lookup must compare values.
/// Column 0 is always indexed and answers whole-tuple lookups; other columns
/// are indexed on demand (EnsureProbeIndex) — a shared Rete memory may be
/// probed on different columns by different and-nodes.
///
/// Duplicate tuples are supported (bag semantics).  Every order the store
/// exposes is record order (RecordId, which is heap page/slot order), never
/// a hash table's.
class TupleStore {
 public:
  /// \param disk          backing store
  /// \param pad_to_bytes  logical record width (the paper's S) its pages
  ///                      account, padding not stored; 0 = natural
  explicit TupleStore(storage::SimulatedDisk* disk,
                      std::size_t pad_to_bytes = 0);
  /// Frees the store's pages, so `disk` must still be alive: every owner
  /// destroys its stores before the disk they live on.
  ~TupleStore();

  TupleStore(const TupleStore&) = delete;
  TupleStore& operator=(const TupleStore&) = delete;

  /// Adds one tuple (charges the page write, and a read if appending to a
  /// partially filled page).
  Status Insert(const rel::Tuple& tuple);

  /// Removes the lowest-RecordId instance of `tuple`; NotFound if absent.
  Status Remove(const rel::Tuple& tuple);

  /// True if at least one instance of `tuple` is stored (no I/O charge —
  /// answered like an index lookup: the column-0 index names the candidates
  /// and each is decoded from its page un-metered).
  bool Contains(const rel::Tuple& tuple) const;

  /// Reads every tuple in record order, charging one read per page.
  Result<std::vector<rel::Tuple>> ReadAll() const;

  /// Builds (or keeps) an in-memory index on `column`; column 0 has one.
  void EnsureProbeIndex(std::size_t column);

  /// Calls `fn` on every tuple whose `column` equals `key`, in record
  /// order, charging one read per distinct record fetch (page reads
  /// deduplicate inside an access scope).  A tag collision is checked
  /// un-metered, so it is neither charged nor visited.  Each match is
  /// decoded for one call of `fn`, which may keep it and runs under the
  /// caller's metering; `fn` must not mutate this store.  Stops at and
  /// returns the first error `fn` returns.  Requires an index on `column`
  /// (InvalidArgument otherwise).
  Status ProbeEqual(std::size_t column, int64_t key,
                    const std::function<Status(rel::Tuple&&)>& fn) const;

  /// Replaces the whole contents (used to refresh a cache after recompute).
  /// Charges a read per old page and a write per new page — the paper's
  /// "read the pages currently in the cache, change their value, and write
  /// them back" (2 * C2 * ProcSize).  The old pages are freed, not kept
  /// (SimulatedDisk::FreePage); the new contents go on fresh page ids.
  Status Rebuild(const std::vector<rel::Tuple>& tuples);

  /// ReadAll without any I/O charge; for tests and invariant checks only.
  std::vector<rel::Tuple> SnapshotForTesting() const;

  /// Visits every stored tuple in record order until `fn` returns false.
  /// Each tuple is decoded from its page un-metered; `fn` runs under the
  /// caller's metering.  `fn`'s argument is a temporary, valid only during
  /// that call: copy what must outlive it.  `fn` must not mutate this store.
  void ForEach(const std::function<bool(const rel::Tuple&)>& fn) const;

  /// Deep self-validation (un-metered): the heap and every index must
  /// describe the same bag — each index names every live record once, each
  /// posting's tag is the tag of its record's value in that column, and
  /// each table passes PostingTable::CheckStructure.
  Status CheckConsistency() const;

  std::size_t size() const { return count_; }
  std::size_t page_count() const;

 private:
  Status InsertInternal(const rel::Tuple& tuple);
  /// The tuple stored at `rid`; the caller un-meters the read.
  Result<rel::Tuple> Decode(storage::RecordId rid) const;
  /// The lowest record equal to `tuple`, if any.
  std::optional<storage::RecordId> Find(const rel::Tuple& tuple) const;

  storage::SimulatedDisk* disk_;
  std::size_t pad_to_bytes_;
  storage::HeapFile heap_;
  // column -> index; column 0 is always present.
  std::map<std::size_t, PostingTable> indexes_;
  std::size_t count_ = 0;
};

}  // namespace procsim::ivm

#endif  // PROCSIM_IVM_TUPLE_STORE_H_
