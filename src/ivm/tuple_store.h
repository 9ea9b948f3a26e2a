#ifndef PROCSIM_IVM_TUPLE_STORE_H_
#define PROCSIM_IVM_TUPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "storage/disk.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace procsim::ivm {

/// \brief A page-backed bag of tuples with cheap in-memory indexes.
///
/// Used for materialized procedure results, cached values, and Rete α/β
/// memory nodes.  The SimulatedDisk pages hold the only copy of each tuple,
/// so every read of the contents and every incremental refresh charges the
/// paper's I/O costs.  Its one kind of index maps a column value's
/// rel::Value::Hash to the record ids holding it: the uncharged index part of
/// the structure, whose named records are decoded un-metered when a lookup
/// must compare values.  Column 0 is always indexed and answers whole-tuple
/// lookups; other columns are indexed on demand (EnsureProbeIndex) — a shared
/// Rete memory may be probed on different columns by different and-nodes.
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

  /// All tuples whose `column` equals `key`, in record order, charging one
  /// read per distinct record fetch (page reads deduplicate inside an access
  /// scope).  A hash collision is checked un-metered, so it is neither
  /// charged nor returned.  Requires an index on `column`.
  Result<std::vector<rel::Tuple>> ProbeEqual(std::size_t column,
                                             int64_t key) const;

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
  /// describe the same bag — each index names every live record once, and
  /// each posting's key is the hash of its record's value in that column.
  Status CheckConsistency() const;

  std::size_t size() const { return count_; }
  std::size_t page_count() const;

 private:
  /// Column value hash -> ids of the records holding that value.
  using Index = std::unordered_multimap<std::size_t, storage::RecordId>;

  Status InsertInternal(const rel::Tuple& tuple);
  /// The tuple stored at `rid`; the caller un-meters the read.
  Result<rel::Tuple> Decode(storage::RecordId rid) const;
  /// The lowest record equal to `tuple`, if any.
  std::optional<storage::RecordId> Find(const rel::Tuple& tuple) const;

  storage::SimulatedDisk* disk_;
  std::size_t pad_to_bytes_;
  storage::HeapFile heap_;
  // column -> index; column 0 is always present.
  std::map<std::size_t, Index> indexes_;
  std::size_t count_ = 0;
};

}  // namespace procsim::ivm

#endif  // PROCSIM_IVM_TUPLE_STORE_H_
