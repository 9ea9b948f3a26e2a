#include "storage/hash_index.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace procsim::storage {

namespace {

// Field widths of the on-page bucket layout (see the class comment).
constexpr std::size_t kCountBytes = 4;
constexpr std::size_t kEntryBytes = 14;  // i64 key + u32 page + u16 slot
constexpr std::size_t kLinkBytes = 4;

constexpr std::size_t BucketBytes(std::size_t n) {
  return kCountBytes + n * kEntryBytes + kLinkBytes;
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

// Fibonacci hashing of the key to a 64-bit value.
uint64_t HashKey(int64_t key) {
  return static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
}

uint8_t* PutEntry(uint8_t* at, int64_t key, RecordId rid) {
  return Put(Put(Put(at, key), rid.page_id), rid.slot);
}

/// An empty bucket with no overflow page.
std::vector<uint8_t> EmptyBucket() {
  std::vector<uint8_t> out(BucketBytes(0));
  Put(Put<uint32_t>(out.data(), 0), kInvalidPageId);
  return out;
}

/// A bucket holding just (key, rid), with no overflow page.
std::vector<uint8_t> SingleEntryBucket(int64_t key, RecordId rid) {
  std::vector<uint8_t> out(BucketBytes(1));
  Put(PutEntry(Put<uint32_t>(out.data(), 1), key, rid), kInvalidPageId);
  return out;
}

}  // namespace

/// A bucket read in place.  Parse() checks that the bytes hold the whole
/// layout its count announces.  Valid only while the page is not written.
class HashIndex::BucketView {
 public:
  static Result<BucketView> Parse(ByteView bytes) {
    if (bytes.size() < kCountBytes) {
      return Status::InvalidArgument("truncated hash bucket header");
    }
    BucketView view;
    view.bytes_ = bytes.data();
    view.size_ = Load<uint32_t>(bytes.data());
    if (bytes.size() < BucketBytes(view.size_)) {
      return Status::InvalidArgument("truncated hash bucket");
    }
    return view;
  }

  std::size_t size() const { return size_; }
  int64_t key(std::size_t i) const { return Load<int64_t>(entry(i)); }
  RecordId rid(std::size_t i) const {
    return RecordId{Load<uint32_t>(entry(i) + 8),
                    Load<uint16_t>(entry(i) + 12)};
  }
  PageId overflow() const { return Load<PageId>(entry(size_)); }

  /// This bucket's image with (key, rid) appended.
  std::vector<uint8_t> WithEntry(int64_t key, RecordId rid) const {
    std::vector<uint8_t> out(BucketBytes(size_ + 1));
    uint8_t* at = Put(out.data(), static_cast<uint32_t>(size_ + 1));
    at = std::copy_n(entry(0), size_ * kEntryBytes, at);
    Put(PutEntry(at, key, rid), overflow());
    return out;
  }

  /// This bucket's image without the entry at `index`.
  std::vector<uint8_t> WithoutEntry(std::size_t index) const {
    std::vector<uint8_t> out(BucketBytes(size_ - 1));
    uint8_t* at = Put(out.data(), static_cast<uint32_t>(size_ - 1));
    at = std::copy_n(entry(0), index * kEntryBytes, at);
    std::copy_n(entry(index + 1),
                (size_ - index - 1) * kEntryBytes + kLinkBytes, at);
    return out;
  }

  /// This bucket's image chained to `overflow`.
  std::vector<uint8_t> WithOverflow(PageId overflow) const {
    std::vector<uint8_t> out(bytes_, bytes_ + BucketBytes(size_));
    Put(out.data() + BucketBytes(size_) - kLinkBytes, overflow);
    return out;
  }

 private:
  const uint8_t* entry(std::size_t i) const {
    return bytes_ + kCountBytes + i * kEntryBytes;
  }

  const uint8_t* bytes_ = nullptr;
  std::size_t size_ = 0;
};

HashIndex::HashIndex(SimulatedDisk* disk, std::size_t expected_entries,
                     uint32_t entry_bytes)
    : disk_(disk) {
  PROCSIM_CHECK(disk != nullptr);
  PROCSIM_CHECK_GT(entry_bytes, 0u);
  capacity_per_page_ = std::max(4u, disk->page_size() / entry_bytes);
  // Target ~60% fill so overflow chains are rare.
  const std::size_t target =
      std::max<std::size_t>(1, (expected_entries * 10) /
                                   (capacity_per_page_ * 6));
  buckets_.reserve(target);
  const std::vector<uint8_t> empty = EmptyBucket();
  for (std::size_t i = 0; i < target; ++i) {
    buckets_.push_back(AllocateBucket(empty));
  }
}

std::size_t HashIndex::BucketIndexFor(int64_t key) const {
  return static_cast<std::size_t>(HashKey(key) % buckets_.size());
}

Result<HashIndex::BucketView> HashIndex::ViewBucket(PageId page_id) const {
  Result<Page*> page = disk_->ReadPage(page_id);
  if (!page.ok()) return page.status();
  Result<ByteView> bytes = page.ValueOrDie()->View(0);
  if (!bytes.ok()) return bytes.status();
  return BucketView::Parse(bytes.ValueOrDie());
}

Status HashIndex::StoreBucket(PageId page_id,
                              const std::vector<uint8_t>& image) {
  Result<Page*> page = disk_->ReadPage(page_id);
  if (!page.ok()) return page.status();
  PROCSIM_RETURN_IF_ERROR(page.ValueOrDie()->Update(
      0, image.data(), static_cast<uint32_t>(image.size())));
  return disk_->MarkDirty(page_id);
}

PageId HashIndex::AllocateBucket(const std::vector<uint8_t>& image) {
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

Status HashIndex::Insert(int64_t key, RecordId rid) {
  // First pass: scan the whole chain for a duplicate, remembering the first
  // page with room (a delete may have freed space before a full page).
  const PageId head = buckets_[BucketIndexFor(key)];
  PageId target = kInvalidPageId;
  PageId last = head;
  for (PageId page_id = head; page_id != kInvalidPageId;) {
    Result<BucketView> viewed = ViewBucket(page_id);
    if (!viewed.ok()) return viewed.status();
    const BucketView& bucket = viewed.ValueOrDie();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket.key(i) == key && bucket.rid(i) == rid) {
        return Status::AlreadyExists("duplicate hash index entry");
      }
    }
    if (target == kInvalidPageId && bucket.size() < capacity_per_page_) {
      target = page_id;
    }
    last = page_id;
    page_id = bucket.overflow();
  }
  if (target != kInvalidPageId) {
    // Read `target` again rather than keep its view from the first pass:
    // that ReadPage is part of the charged sequence (DESIGN.md §14).
    Result<BucketView> viewed = ViewBucket(target);
    if (!viewed.ok()) return viewed.status();
    PROCSIM_RETURN_IF_ERROR(
        StoreBucket(target, viewed.ValueOrDie().WithEntry(key, rid)));
    ++entry_count_;
    return Status::OK();
  }
  // Every page in the chain is full: append a new overflow page.  The
  // allocation writes only the fresh page, so `tail` stays valid across it.
  Result<BucketView> tail = ViewBucket(last);
  if (!tail.ok()) return tail.status();
  const PageId overflow = AllocateBucket(SingleEntryBucket(key, rid));
  PROCSIM_RETURN_IF_ERROR(
      StoreBucket(last, tail.ValueOrDie().WithOverflow(overflow)));
  ++entry_count_;
  return Status::OK();
}

Status HashIndex::Delete(int64_t key, RecordId rid) {
  PageId page_id = buckets_[BucketIndexFor(key)];
  while (page_id != kInvalidPageId) {
    Result<BucketView> viewed = ViewBucket(page_id);
    if (!viewed.ok()) return viewed.status();
    const BucketView& bucket = viewed.ValueOrDie();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket.key(i) == key && bucket.rid(i) == rid) {
        PROCSIM_RETURN_IF_ERROR(StoreBucket(page_id, bucket.WithoutEntry(i)));
        --entry_count_;
        return Status::OK();
      }
    }
    page_id = bucket.overflow();
  }
  return Status::NotFound("hash index entry not found");
}

Result<std::vector<RecordId>> HashIndex::Search(int64_t key) const {
  std::vector<RecordId> out;
  PageId page_id = buckets_[BucketIndexFor(key)];
  while (page_id != kInvalidPageId) {
    Result<BucketView> viewed = ViewBucket(page_id);
    if (!viewed.ok()) return viewed.status();
    const BucketView& bucket = viewed.ValueOrDie();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket.key(i) == key) out.push_back(bucket.rid(i));
    }
    page_id = bucket.overflow();
  }
  return out;
}

}  // namespace procsim::storage
