#ifndef PROCSIM_IVM_DELTA_H_
#define PROCSIM_IVM_DELTA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"

namespace procsim::ivm {

/// \brief The net change of a transaction against one view or relation:
/// the paper's A_net (inserted) and D_net (deleted) sets.
///
/// Inserting then deleting the same tuple within one transaction cancels
/// out (net semantics).  Counted-bag representation so duplicate tuples are
/// handled correctly.
class DeltaSet {
 public:
  DeltaSet() = default;

  /// Records an insertion (a "+" token).
  void AddInsert(const rel::Tuple& tuple) { Bump(tuple, +1); }

  /// Records a deletion (a "-" token).
  void AddDelete(const rel::Tuple& tuple) { Bump(tuple, -1); }

  bool empty() const;

  /// Appends A_net and D_net (with multiplicity) to `inserts` and `deletes`,
  /// reserving exact capacity up front — the input of delta-join
  /// evaluation.  Either output may be null to skip it.
  void NetRows(std::vector<rel::Tuple>* inserts,
               std::vector<rel::Tuple>* deletes) const;

  /// Total number of entries with non-zero net count (sum of |counts|) —
  /// the "size of the A and D data structures" the paper charges C3 for.
  std::size_t TotalNetSize() const;

  void Clear() { counts_.clear(); }

  std::string ToString() const;

 private:
  void Bump(const rel::Tuple& tuple, long delta);

  std::unordered_map<rel::Tuple, long, rel::TupleHash> counts_;
};

/// \brief One transaction's ordered change stream against one relation.
///
/// Preserves the exact insert/delete serialization the WAL recorded — an
/// in-place modification stays a delete of the old value immediately
/// followed by an insert of the new one — and every consumer replays it row
/// by row in that order.
class ChangeBatch {
 public:
  ChangeBatch() = default;

  void AddInsert(const rel::Tuple& tuple) {
    changes_.push_back({true, tuple});
  }
  void AddDelete(const rel::Tuple& tuple) {
    changes_.push_back({false, tuple});
  }

  std::size_t size() const { return changes_.size(); }
  bool empty() const { return changes_.empty(); }

  /// Whether change `i` is an insert (false: delete).
  bool is_insert(std::size_t i) const { return changes_[i].is_insert; }

  const rel::Tuple& RowAt(std::size_t i) const { return changes_[i].row; }

  void Clear() { changes_.clear(); }

 private:
  struct Change {
    bool is_insert;
    rel::Tuple row;
  };
  std::vector<Change> changes_;
};

}  // namespace procsim::ivm

#endif  // PROCSIM_IVM_DELTA_H_
