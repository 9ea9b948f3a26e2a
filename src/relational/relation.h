#ifndef PROCSIM_RELATIONAL_RELATION_H_
#define PROCSIM_RELATIONAL_RELATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/predicate.h"
#include "relational/tuple.h"
#include "storage/btree.h"
#include "storage/disk.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace procsim::rel {

/// \brief A named relation: schema + heap file + optional B-tree and hash
/// indexes on single int64 columns.
///
/// Matches the paper's physical designs: R1 has a clustered B-tree on its
/// selection attribute (bulk-load in key order to realize clustering); R2
/// and R3 have hashed primary indexes on their join attributes.
class Relation {
 public:
  struct Options {
    /// Logical width of a stored tuple (the paper's S): pages account each
    /// tuple at no less than this many bytes but keep only its natural
    /// bytes (see storage::Page); 0 = natural width.
    std::size_t tuple_width_bytes = 0;
    /// Column with a B-tree index (int64), if any.
    std::optional<std::size_t> btree_column;
    /// Column with a hash index (int64), if any.
    std::optional<std::size_t> hash_column;
    /// Sizing hint for the hash index directory.
    std::size_t expected_tuples = 1024;
    /// Bytes per index entry (the paper's d).
    uint32_t index_entry_bytes = 20;
  };

  Relation(std::string name, Schema schema, storage::SimulatedDisk* disk,
           const Options& options);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t tuple_count() const { return heap_.record_count(); }
  std::size_t heap_page_count() const { return heap_.pages().size(); }

  bool has_btree() const { return btree_ != nullptr; }
  bool has_hash_index() const { return hash_ != nullptr; }
  const storage::BTree* btree() const { return btree_.get(); }
  const storage::HashIndex* hash_index() const { return hash_.get(); }
  storage::BTree* mutable_btree() { return btree_.get(); }
  std::optional<std::size_t> btree_column() const { return options_.btree_column; }
  std::optional<std::size_t> hash_column() const { return options_.hash_column; }

  // --- mutations -----------------------------------------------------------

  /// Inserts a tuple, maintaining indexes.
  Result<storage::RecordId> Insert(const Tuple& tuple);

  /// Deletes the tuple at `rid`.
  Status Delete(storage::RecordId rid);

  /// Replaces the tuple at `rid` in place (same page/slot).
  Status UpdateInPlace(storage::RecordId rid, const Tuple& new_tuple);

  // --- reads ---------------------------------------------------------------

  Result<Tuple> Read(storage::RecordId rid) const;

  /// Full scan in storage order; stops early when `fn` returns false.
  Status Scan(const std::function<bool(storage::RecordId, const Tuple&)>& fn)
      const;

  /// B-tree range retrieval: all tuples whose indexed column is in
  /// [lo, hi], in key order.  Requires has_btree().
  Status BTreeRange(
      int64_t lo, int64_t hi,
      const std::function<bool(storage::RecordId, const Tuple&)>& fn) const;

  /// Hash-index point retrieval on the hashed column.
  Result<std::vector<Tuple>> HashProbe(int64_t key) const;

 private:
  int64_t IndexKey(const Tuple& tuple, std::size_t column) const;

  std::string name_;
  Schema schema_;
  storage::SimulatedDisk* disk_;
  Options options_;
  storage::HeapFile heap_;
  std::unique_ptr<storage::BTree> btree_;
  std::unique_ptr<storage::HashIndex> hash_;
};

}  // namespace procsim::rel

#endif  // PROCSIM_RELATIONAL_RELATION_H_
