#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace procsim::storage {

namespace {

// Field widths of the on-page node layout (see the class comment).
constexpr std::size_t kHeaderBytes = 5;  // u8 is_leaf + u32 n
constexpr std::size_t kKeyBytes = 8;
constexpr std::size_t kRidBytes = 6;   // u32 page + u16 slot
constexpr std::size_t kPageBytes = 4;  // a next_leaf, child count or child

constexpr std::size_t LeafBytes(std::size_t n) {
  return kHeaderBytes + n * (kKeyBytes + kRidBytes) + kPageBytes;
}

template <typename T>
T Load(const uint8_t* at) {
  T value{};
  std::memcpy(&value, at, sizeof(T));
  return value;
}

template <typename T>
uint8_t* Put(uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(T));
  return at + sizeof(T);
}

uint8_t* PutRid(uint8_t* at, RecordId rid) {
  return Put(Put(at, rid.page_id), rid.slot);
}

// Entries are ordered by (key, rid) so duplicates have a stable position.
bool EntryLess(int64_t key_a, RecordId rid_a, int64_t key_b, RecordId rid_b) {
  if (key_a != key_b) return key_a < key_b;
  return rid_a < rid_b;
}

}  // namespace

/// A node read in place.  Parse() checks that the bytes hold the whole
/// layout its header announces; the accessors then load fields straight
/// from the page.  Valid only while the page is not written.
class BTree::NodeView {
 public:
  static Result<NodeView> Parse(ByteView bytes) {
    if (bytes.size() < kHeaderBytes) {
      return Status::InvalidArgument("truncated btree node header");
    }
    NodeView view;
    view.bytes_ = bytes.data();
    view.is_leaf_ = bytes[0] != 0;
    view.size_ = Load<uint32_t>(bytes.data() + 1);
    const std::size_t after_keys = kHeaderBytes + view.size_ * kKeyBytes;
    if (view.is_leaf_) {
      if (bytes.size() < LeafBytes(view.size_)) {
        return Status::InvalidArgument("truncated btree leaf");
      }
      return view;
    }
    if (bytes.size() < after_keys + kPageBytes) {
      return Status::InvalidArgument("truncated btree node keys");
    }
    view.child_count_ = Load<uint32_t>(bytes.data() + after_keys);
    if (bytes.size() < after_keys + kPageBytes * (1 + view.child_count_)) {
      return Status::InvalidArgument("truncated btree children");
    }
    return view;
  }

  bool is_leaf() const { return is_leaf_; }
  std::size_t size() const { return size_; }

  int64_t key(std::size_t i) const {
    return Load<int64_t>(keys() + i * kKeyBytes);
  }
  RecordId rid(std::size_t i) const {
    const uint8_t* at = rids() + i * kRidBytes;
    return RecordId{Load<uint32_t>(at), Load<uint16_t>(at + 4)};
  }
  PageId next_leaf() const { return Load<PageId>(rids() + size_ * kRidBytes); }
  std::size_t child_count() const { return child_count_; }
  PageId child(std::size_t i) const {
    return Load<PageId>(keys_end() + kPageBytes * (1 + i));
  }

  /// Index of the first key >= `key`.
  std::size_t LowerBound(int64_t key) const {
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (this->key(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Index of the first entry >= (key, rid) in a leaf, whose entries are
  /// (key, rid)-ordered.
  std::size_t LowerBound(int64_t key, RecordId rid) const {
    std::size_t lo = LowerBound(key);
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (EntryLess(this->key(mid), this->rid(mid), key, rid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// This leaf's image with (key, rid) spliced in at `index`.
  std::vector<uint8_t> LeafWithEntry(std::size_t index, int64_t key,
                                     RecordId rid) const {
    std::vector<uint8_t> out(LeafBytes(size_ + 1));
    uint8_t* at = Put<uint8_t>(out.data(), 1);
    at = Put(at, static_cast<uint32_t>(size_ + 1));
    at = std::copy_n(keys(), index * kKeyBytes, at);
    at = Put(at, key);
    at = std::copy_n(keys() + index * kKeyBytes, (size_ - index) * kKeyBytes,
                     at);
    at = std::copy_n(rids(), index * kRidBytes, at);
    at = PutRid(at, rid);
    std::copy_n(rids() + index * kRidBytes,
                (size_ - index) * kRidBytes + kPageBytes, at);
    return out;
  }

  /// This leaf's image without the entry at `index`.
  std::vector<uint8_t> LeafWithoutEntry(std::size_t index) const {
    std::vector<uint8_t> out(LeafBytes(size_ - 1));
    uint8_t* at = Put<uint8_t>(out.data(), 1);
    at = Put(at, static_cast<uint32_t>(size_ - 1));
    at = std::copy_n(keys(), index * kKeyBytes, at);
    at = std::copy_n(keys() + (index + 1) * kKeyBytes,
                     (size_ - index - 1) * kKeyBytes, at);
    at = std::copy_n(rids(), index * kRidBytes, at);
    std::copy_n(rids() + (index + 1) * kRidBytes,
                (size_ - index - 1) * kRidBytes + kPageBytes, at);
    return out;
  }

 private:
  const uint8_t* keys() const { return bytes_ + kHeaderBytes; }
  // Leaf rids, or an internal node's child count, follow the keys.
  const uint8_t* keys_end() const { return keys() + size_ * kKeyBytes; }
  const uint8_t* rids() const { return keys_end(); }

  const uint8_t* bytes_ = nullptr;
  bool is_leaf_ = true;
  std::size_t size_ = 0;
  std::size_t child_count_ = 0;
};

/// A node decoded into vectors: the form a split edits.
struct BTree::Node {
  bool is_leaf = true;
  std::vector<int64_t> keys;
  // Leaf: values[i] corresponds to keys[i].  Internal: children has
  // keys.size() + 1 entries; keys[i] is the smallest key in children[i+1].
  std::vector<RecordId> values;
  std::vector<PageId> children;
  PageId next_leaf = kInvalidPageId;

  static Node Decode(const NodeView& view) {
    Node node;
    node.is_leaf = view.is_leaf();
    node.keys.resize(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) node.keys[i] = view.key(i);
    if (node.is_leaf) {
      node.values.resize(view.size());
      for (std::size_t i = 0; i < view.size(); ++i) {
        node.values[i] = view.rid(i);
      }
      node.next_leaf = view.next_leaf();
    } else {
      node.children.resize(view.child_count());
      for (std::size_t i = 0; i < view.child_count(); ++i) {
        node.children[i] = view.child(i);
      }
    }
    return node;
  }

  std::vector<uint8_t> Encode() const {
    std::vector<uint8_t> out(
        is_leaf ? LeafBytes(keys.size())
                : kHeaderBytes + keys.size() * kKeyBytes +
                      kPageBytes * (1 + children.size()));
    uint8_t* at = Put<uint8_t>(out.data(), is_leaf ? 1 : 0);
    at = Put(at, static_cast<uint32_t>(keys.size()));
    for (int64_t key : keys) at = Put(at, key);
    if (is_leaf) {
      for (const RecordId& rid : values) at = PutRid(at, rid);
      Put(at, next_leaf);
    } else {
      at = Put(at, static_cast<uint32_t>(children.size()));
      for (PageId child : children) at = Put(at, child);
    }
    return out;
  }
};

struct BTree::EntryLocation {
  PageId page_id;
  NodeView leaf;
  std::size_t index;
};

BTree::BTree(SimulatedDisk* disk, uint32_t entry_bytes) : disk_(disk) {
  PROCSIM_CHECK(disk != nullptr);
  PROCSIM_CHECK_GT(entry_bytes, 0u);
  fanout_ = std::max(4u, disk->page_size() / entry_bytes);
  PROCSIM_CHECK_LE(LeafBytes(fanout_), disk->page_size())
      << "a full btree leaf of fanout " << fanout_ << " takes "
      << LeafBytes(fanout_) << " bytes, more than the "
      << disk->page_size() << "-byte page";
  root_ = AllocateNode(Node{}.Encode());
}

Result<BTree::NodeView> BTree::ViewNode(PageId page_id) const {
  Result<Page*> page = disk_->ReadPage(page_id);
  if (!page.ok()) return page.status();
  Result<ByteView> bytes = page.ValueOrDie()->View(0);
  if (!bytes.ok()) return bytes.status();
  return NodeView::Parse(bytes.ValueOrDie());
}

Status BTree::StoreNode(PageId page_id, const std::vector<uint8_t>& image) {
  Result<Page*> page = disk_->ReadPage(page_id);
  if (!page.ok()) return page.status();
  PROCSIM_RETURN_IF_ERROR(page.ValueOrDie()->Update(
      0, image.data(), static_cast<uint32_t>(image.size())));
  return disk_->MarkDirty(page_id);
}

PageId BTree::AllocateNode(const std::vector<uint8_t>& image) {
  const PageId page_id = disk_->AllocatePage();
  Result<Page*> page = disk_->ReadPage(page_id);
  PROCSIM_CHECK(page.ok()) << page.status().ToString();
  Result<uint16_t> slot = page.ValueOrDie()->Insert(
      image.data(), static_cast<uint32_t>(image.size()));
  PROCSIM_CHECK(slot.ok()) << slot.status().ToString();
  PROCSIM_CHECK_EQ(slot.ValueOrDie(), 0);
  Status dirty = disk_->MarkDirty(page_id);
  PROCSIM_CHECK(dirty.ok()) << dirty.ToString();
  return page_id;
}

Result<std::optional<BTree::SplitResult>> BTree::InsertIntoLeaf(
    PageId page_id, const NodeView& leaf, int64_t key, RecordId rid) {
  const std::size_t n = leaf.size();
  const std::size_t pos = leaf.LowerBound(key, rid);
  if (pos < n && leaf.key(pos) == key && leaf.rid(pos) == rid) {
    return Status::AlreadyExists("duplicate btree entry");
  }
  if (n + 1 <= fanout_) {
    PROCSIM_RETURN_IF_ERROR(
        StoreNode(page_id, leaf.LeafWithEntry(pos, key, rid)));
    ++entry_count_;
    return std::optional<SplitResult>(std::nullopt);
  }
  // Split the leaf.
  Node node = Node::Decode(leaf);
  node.keys.insert(node.keys.begin() + pos, key);
  node.values.insert(node.values.begin() + pos, rid);
  const std::size_t mid = node.keys.size() / 2;
  Node right;
  right.is_leaf = true;
  right.keys.assign(node.keys.begin() + mid, node.keys.end());
  right.values.assign(node.values.begin() + mid, node.values.end());
  right.next_leaf = node.next_leaf;
  node.keys.resize(mid);
  node.values.resize(mid);
  const PageId right_page = AllocateNode(right.Encode());
  node.next_leaf = right_page;
  PROCSIM_RETURN_IF_ERROR(StoreNode(page_id, node.Encode()));
  ++entry_count_;
  return std::optional<SplitResult>(SplitResult{right.keys.front(),
                                                right_page});
}

Result<std::optional<BTree::SplitResult>> BTree::InsertRecursive(
    PageId page_id, int64_t key, RecordId rid) {
  Result<NodeView> viewed = ViewNode(page_id);
  if (!viewed.ok()) return viewed.status();
  const NodeView& view = viewed.ValueOrDie();
  if (view.is_leaf()) return InsertIntoLeaf(page_id, view, key, rid);

  // Internal node: descend to the leftmost child that can contain `key`
  // (lower_bound rather than upper_bound so duplicate keys equal to a
  // separator are reachable via the leaf chain).
  const std::size_t child_index = view.LowerBound(key);
  Result<std::optional<SplitResult>> child_split =
      InsertRecursive(view.child(child_index), key, rid);
  if (!child_split.ok()) return child_split.status();
  if (!child_split.ValueOrDie().has_value()) {
    return std::optional<SplitResult>(std::nullopt);
  }
  // The recursion wrote only descendants and freshly allocated pages, so
  // `view` still shows this node's bytes.
  Node node = Node::Decode(view);
  const SplitResult split = *child_split.ValueOrDie();
  node.keys.insert(node.keys.begin() + child_index, split.separator);
  node.children.insert(node.children.begin() + child_index + 1,
                       split.right_page);
  if (node.keys.size() <= fanout_) {
    PROCSIM_RETURN_IF_ERROR(StoreNode(page_id, node.Encode()));
    return std::optional<SplitResult>(std::nullopt);
  }
  // Split the internal node; the middle key moves up.
  const std::size_t mid = node.keys.size() / 2;
  const int64_t separator = node.keys[mid];
  Node right;
  right.is_leaf = false;
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.children.assign(node.children.begin() + mid + 1, node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  const PageId right_page = AllocateNode(right.Encode());
  PROCSIM_RETURN_IF_ERROR(StoreNode(page_id, node.Encode()));
  return std::optional<SplitResult>(SplitResult{separator, right_page});
}

Status BTree::Insert(int64_t key, RecordId rid) {
  // Duplicates of `key` can span leaves, and the structural descent only
  // sees the leftmost candidate leaf — check the whole chain first.
  Result<std::optional<EntryLocation>> existing = FindEntry(key, rid);
  if (!existing.ok()) return existing.status();
  if (existing.ValueOrDie().has_value()) {
    return Status::AlreadyExists("duplicate btree entry");
  }
  Result<std::optional<SplitResult>> split = InsertRecursive(root_, key, rid);
  if (!split.ok()) return split.status();
  if (split.ValueOrDie().has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split.ValueOrDie()->separator);
    new_root.children.push_back(root_);
    new_root.children.push_back(split.ValueOrDie()->right_page);
    root_ = AllocateNode(new_root.Encode());
    ++height_;
  }
  PROCSIM_AUDIT_OK(CheckInvariants());
  return Status::OK();
}

Result<std::optional<BTree::EntryLocation>> BTree::FindEntry(
    int64_t key, RecordId rid) const {
  Result<PageId> first_leaf = FindLeaf(key);
  if (!first_leaf.ok()) return first_leaf.status();
  PageId page_id = first_leaf.ValueOrDie();
  while (page_id != kInvalidPageId) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    const NodeView& leaf = viewed.ValueOrDie();
    const std::size_t n = leaf.size();
    const std::size_t pos = leaf.LowerBound(key, rid);
    if (pos < n && leaf.key(pos) == key && leaf.rid(pos) == rid) {
      return std::optional<EntryLocation>(EntryLocation{page_id, leaf, pos});
    }
    // A larger key in this leaf ends the run of `key`.
    if (n > 0 && leaf.key(n - 1) > key) break;
    page_id = leaf.next_leaf();
  }
  return std::optional<EntryLocation>(std::nullopt);
}

Result<PageId> BTree::FindLeaf(int64_t key) const {
  PageId page_id = root_;
  while (true) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    const NodeView& node = viewed.ValueOrDie();
    if (node.is_leaf()) return page_id;
    page_id = node.child(node.LowerBound(key));
  }
}

Status BTree::Delete(int64_t key, RecordId rid) {
  Result<std::optional<EntryLocation>> found = FindEntry(key, rid);
  if (!found.ok()) return found.status();
  if (!found.ValueOrDie().has_value()) {
    return Status::NotFound("btree entry not found");
  }
  const EntryLocation& at = *found.ValueOrDie();
  PROCSIM_RETURN_IF_ERROR(
      StoreNode(at.page_id, at.leaf.LeafWithoutEntry(at.index)));
  --entry_count_;
  PROCSIM_AUDIT_OK(CheckInvariants());
  return Status::OK();
}

Result<std::vector<RecordId>> BTree::Search(int64_t key) const {
  std::vector<RecordId> out;
  Status st = RangeScan(key, key, [&](int64_t, RecordId rid) {
    out.push_back(rid);
    return true;
  });
  if (!st.ok()) return st;
  return out;
}

Status BTree::RangeScan(
    int64_t lo, int64_t hi,
    const std::function<bool(int64_t, RecordId)>& fn) const {
  if (lo > hi) return Status::OK();
  Result<PageId> first_leaf = FindLeaf(lo);
  if (!first_leaf.ok()) return first_leaf.status();
  PageId page_id = first_leaf.ValueOrDie();
  while (page_id != kInvalidPageId) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    const NodeView& leaf = viewed.ValueOrDie();
    for (std::size_t i = leaf.LowerBound(lo); i < leaf.size(); ++i) {
      const int64_t key = leaf.key(i);
      if (key > hi) return Status::OK();
      if (!fn(key, leaf.rid(i))) return Status::OK();
    }
    page_id = leaf.next_leaf();
  }
  return Status::OK();
}

Status BTree::CheckNode(PageId page_id, std::optional<int64_t> lo,
                        std::optional<int64_t> hi, int depth,
                        int* leaf_depth) const {
  Result<NodeView> viewed = ViewNode(page_id);
  if (!viewed.ok()) return viewed.status();
  const NodeView& node = viewed.ValueOrDie();
  for (std::size_t i = 1; i < node.size(); ++i) {
    if (node.key(i) < node.key(i - 1)) {
      return Status::Internal("btree node keys not sorted in page " +
                              std::to_string(page_id));
    }
  }
  if (node.size() > fanout_) {
    return Status::Internal("btree node in page " + std::to_string(page_id) +
                            " overflows fanout: " +
                            std::to_string(node.size()) + " > " +
                            std::to_string(fanout_));
  }
  // Bounds are inclusive on both sides because duplicate keys may equal the
  // separator on either side of a split.
  for (std::size_t i = 0; i < node.size(); ++i) {
    if (lo.has_value() && node.key(i) < *lo) {
      return Status::Internal("btree key below separator bound");
    }
    if (hi.has_value() && node.key(i) > *hi) {
      return Status::Internal("btree key above separator bound");
    }
  }
  if (node.is_leaf()) {
    if (*leaf_depth < 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("btree leaves at unequal depth");
    }
    return Status::OK();
  }
  if (node.child_count() != node.size() + 1) {
    return Status::Internal("btree internal arity mismatch");
  }
  for (std::size_t i = 0; i < node.child_count(); ++i) {
    std::optional<int64_t> child_lo =
        i == 0 ? lo : std::optional<int64_t>(node.key(i - 1));
    std::optional<int64_t> child_hi =
        i == node.size() ? hi : std::optional<int64_t>(node.key(i));
    PROCSIM_RETURN_IF_ERROR(
        CheckNode(node.child(i), child_lo, child_hi, depth + 1, leaf_depth));
  }
  return Status::OK();
}

Status BTree::CheckInvariants() const {
  // Validation walks every node; never charge it to the experiment.
  MeteringGuard guard(disk_);
  int leaf_depth = -1;
  PROCSIM_RETURN_IF_ERROR(
      CheckNode(root_, std::nullopt, std::nullopt, 0, &leaf_depth));
  if (leaf_depth >= 0 && leaf_depth + 1 != height_) {
    return Status::Internal("btree leaf depth " + std::to_string(leaf_depth) +
                            " inconsistent with height " +
                            std::to_string(height_));
  }

  // Walk the leaf chain: the chain must start at the leftmost leaf, visit
  // entries in global (key, rid) order, and account for every entry.
  PageId page_id = root_;
  while (true) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    if (viewed.ValueOrDie().is_leaf()) break;
    if (viewed.ValueOrDie().child_count() == 0) {
      return Status::Internal("btree internal node with no children");
    }
    page_id = viewed.ValueOrDie().child(0);
  }
  std::size_t chained = 0;
  bool have_previous = false;
  int64_t previous_key = 0;
  // Duplicates of one key can span leaves, and inserts land in the leftmost
  // candidate leaf, so rid order among equal keys holds only *within* a
  // leaf; globally only the keys are ordered.  Uniqueness of (key, rid)
  // pairs across the whole run of a key is tracked separately.
  std::vector<RecordId> current_key_rids;
  while (page_id != kInvalidPageId) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    const NodeView& leaf = viewed.ValueOrDie();
    if (!leaf.is_leaf()) {
      return Status::Internal("btree leaf chain reaches internal node in page " +
                              std::to_string(page_id));
    }
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      const int64_t key = leaf.key(i);
      const RecordId rid = leaf.rid(i);
      if (have_previous && key < previous_key) {
        return Status::Internal(
            "btree leaf chain out of key order: key " +
            std::to_string(previous_key) + " precedes key " +
            std::to_string(key) + " in page " + std::to_string(page_id));
      }
      if (i > 0 && !EntryLess(leaf.key(i - 1), leaf.rid(i - 1), key, rid)) {
        return Status::Internal(
            "btree leaf entries out of (key, rid) order in page " +
            std::to_string(page_id) + " at index " + std::to_string(i));
      }
      if (!have_previous || key != previous_key) {
        current_key_rids.clear();
      }
      for (const RecordId& seen : current_key_rids) {
        if (seen == rid) {
          return Status::Internal(
              "btree holds duplicate entry (" + std::to_string(key) + ", " +
              rid.ToString() + ") in page " + std::to_string(page_id));
        }
      }
      current_key_rids.push_back(rid);
      previous_key = key;
      have_previous = true;
      ++chained;
    }
    page_id = leaf.next_leaf();
  }
  if (chained != entry_count_) {
    return Status::Internal("btree leaf chain holds " +
                            std::to_string(chained) + " entries but " +
                            std::to_string(entry_count_) + " were inserted");
  }
  return Status::OK();
}

Status BTree::CorruptLeafOrderForTesting() {
  MeteringGuard guard(disk_);
  // Find the leftmost leaf, then walk the chain for a leaf with two
  // distinct keys to swap.
  PageId page_id = root_;
  while (true) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    if (viewed.ValueOrDie().is_leaf()) break;
    page_id = viewed.ValueOrDie().child(0);
  }
  while (page_id != kInvalidPageId) {
    Result<NodeView> viewed = ViewNode(page_id);
    if (!viewed.ok()) return viewed.status();
    const NodeView& leaf = viewed.ValueOrDie();
    if (leaf.size() >= 2 && leaf.key(0) != leaf.key(leaf.size() - 1)) {
      Node node = Node::Decode(leaf);
      std::swap(node.keys.front(), node.keys.back());
      std::swap(node.values.front(), node.values.back());
      return StoreNode(page_id, node.Encode());
    }
    page_id = leaf.next_leaf();
  }
  return Status::NotFound("no leaf with two distinct keys to corrupt");
}

}  // namespace procsim::storage
