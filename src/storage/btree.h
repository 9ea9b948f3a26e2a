#ifndef PROCSIM_STORAGE_BTREE_H_
#define PROCSIM_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "storage/disk.h"
#include "storage/page.h"
#include "util/status.h"

namespace procsim::storage {

/// \brief A page-backed B+-tree mapping int64 keys to RecordIds.
///
/// This realizes the paper's "B-tree primary index on the field used by the
/// selection predicate C_f(R1)".  Duplicate keys are allowed (entries are
/// ordered by (key, rid)).  Each node occupies one disk page; node fanout is
/// capped at floor(page_size / entry_bytes) where entry_bytes is the paper's
/// d = 20 bytes per index record, giving the same tree height the analytic
/// model assumes (H1).
///
/// Nodes are read in place: descents, probes and scans binary-search the
/// page bytes through Page::View, and an insert or delete writes one
/// spliced image of the leaf.  Only a split decodes a node into vectors.
/// The on-page layout is
///
///   leaf:     u8 is_leaf=1, u32 n, n x i64 key, n x (u32 page, u16 slot),
///             u32 next_leaf
///   internal: u8 is_leaf=0, u32 n, n x i64 key, u32 child_count,
///             child_count x u32 child
///
/// Deletion is implemented without rebalancing (entries are removed and
/// nodes may underflow), which is sufficient for the paper's workload of
/// in-place modifications and keeps the structure simple; the tree never
/// shrinks in height.
class BTree {
 public:
  /// \param disk         backing store; must outlive the tree
  /// \param entry_bytes  bytes charged per index entry (paper's d); a full
  ///                     leaf of the derived fanout must fit one page
  BTree(SimulatedDisk* disk, uint32_t entry_bytes);

  /// Inserts (key, rid).  Duplicates of the same (key, rid) pair are
  /// rejected with AlreadyExists.
  Status Insert(int64_t key, RecordId rid);

  /// Removes (key, rid); NotFound if absent.
  Status Delete(int64_t key, RecordId rid);

  /// All RecordIds with exactly `key`.
  Result<std::vector<RecordId>> Search(int64_t key) const;

  /// Calls `fn(key, rid)` for each entry with lo <= key <= hi in key order;
  /// stops early if `fn` returns false.  `fn` reads the leaf in place, so it
  /// must not modify this tree.
  Status RangeScan(int64_t lo, int64_t hi,
                   const std::function<bool(int64_t, RecordId)>& fn) const;

  /// Number of levels, including the leaf level.
  int Height() const { return height_; }

  /// Total entries in the tree.
  std::size_t entry_count() const { return entry_count_; }

  /// Maximum entries per node (leaf and internal), as derived from
  /// page_size / entry_bytes.
  uint32_t fanout() const { return fanout_; }

  /// Verifies structural invariants: sorted keys, child separator bounds,
  /// node fill bounds (<= fanout), uniform leaf depth, plus a full walk of
  /// the leaf chain checking global key ordering, per-leaf (key, rid)
  /// ordering, absence of duplicate (key, rid) pairs, and that the chain
  /// accounts for exactly entry_count() entries.  (Rid order among equal
  /// keys is a within-leaf invariant only: duplicates of a key can span
  /// leaves and inserts land in the leftmost candidate leaf.)  Un-metered.
  /// Used by tests, by audit::ValidateRelation, and (in PROCSIM_AUDIT
  /// builds) after every mutation.
  Status CheckInvariants() const;

  /// Deliberately swaps two unequal keys inside one leaf, breaking key
  /// order — corruption injection for validator tests.  NotFound if no leaf
  /// holds two distinct keys.
  Status CorruptLeafOrderForTesting();

 private:
  class NodeView;  // a node read in place from its page bytes
  struct Node;     // a node decoded into vectors, for splits

  /// Reads the node in `page_id` (one ReadPage charge) without copying it.
  Result<NodeView> ViewNode(PageId page_id) const;
  /// Overwrites the node in `page_id` with `image` (ReadPage + MarkDirty).
  Status StoreNode(PageId page_id, const std::vector<uint8_t>& image);
  /// StoreNode for the left half of a split: its page then releases the
  /// arena bytes the old, fuller node held (Page::ShrinkToFit).
  Status StoreSplitLeft(PageId page_id, const std::vector<uint8_t>& image);
  PageId AllocateNode(const std::vector<uint8_t>& image);

  /// Recursive insert; on child split returns the (separator key, new page)
  /// to be inserted into the parent.
  struct SplitResult {
    int64_t separator;
    PageId right_page;
  };
  Result<std::optional<SplitResult>> InsertRecursive(PageId page_id,
                                                     int64_t key, RecordId rid);
  Result<std::optional<SplitResult>> InsertIntoLeaf(PageId page_id,
                                                    const NodeView& leaf,
                                                    int64_t key, RecordId rid);

  /// Descends to the leaf that would contain `key`.
  Result<PageId> FindLeaf(int64_t key) const;

  /// Where an exact (key, rid) pair sits.
  struct EntryLocation;

  /// Locates the exact (key, rid) pair, or nullopt if absent.  Walks the
  /// leaf chain from FindLeaf(key) because duplicates of `key` can span
  /// leaves.
  Result<std::optional<EntryLocation>> FindEntry(int64_t key,
                                                 RecordId rid) const;

  Status CheckNode(PageId page_id, std::optional<int64_t> lo,
                   std::optional<int64_t> hi, int depth,
                   int* leaf_depth) const;

  SimulatedDisk* disk_;
  uint32_t fanout_;
  PageId root_ = kInvalidPageId;
  int height_ = 1;
  std::size_t entry_count_ = 0;
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_BTREE_H_
