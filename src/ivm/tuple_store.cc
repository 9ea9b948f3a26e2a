#include "ivm/tuple_store.h"

#include <algorithm>
#include <set>
#include <string>

#include "util/logging.h"

namespace procsim::ivm {

using rel::Tuple;
using storage::RecordId;

namespace {

constexpr std::size_t kMinCapacity = 8;

}  // namespace

std::size_t PostingTable::HomeSlot(uint32_t tag) const {
  // murmur3's fmix64: every bit of the tag reaches the low bits.
  uint64_t x = tag;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x) & mask();
}

void PostingTable::Place(const Slot& posting) {
  std::size_t i = HomeSlot(posting.tag);
  while (slots_[i].rid.valid()) i = (i + 1) & mask();
  slots_[i] = posting;
}

void PostingTable::Rehash(std::size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  for (const Slot& slot : old) {
    if (slot.rid.valid()) Place(slot);
  }
}

void PostingTable::Insert(uint32_t tag, RecordId rid) {
  PROCSIM_CHECK(rid.valid());
  // Keep the load at most 3/4.
  if (4 * (size_ + 1) > 3 * capacity()) {
    Rehash(std::max(kMinCapacity, 2 * capacity()));
  }
  Place(Slot{tag, rid});
  ++size_;
}

void PostingTable::Reserve(std::size_t postings) {
  // The doubling sequence Insert follows, run to its end.
  std::size_t target = capacity();
  while (4 * postings > 3 * target) {
    target = std::max(kMinCapacity, 2 * target);
  }
  if (target > capacity()) Rehash(target);
}

bool PostingTable::Erase(uint32_t tag, RecordId rid) {
  if (slots_.empty()) return false;
  std::size_t hole = HomeSlot(tag);
  while (!(slots_[hole].tag == tag && slots_[hole].rid == rid)) {
    if (!slots_[hole].rid.valid()) return false;
    hole = (hole + 1) & mask();
  }
  // Backward shift: pull each later posting of the cluster into the hole
  // unless its home lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask(); slots_[j].rid.valid();
       j = (j + 1) & mask()) {
    const std::size_t home = HomeSlot(slots_[j].tag);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void PostingTable::Clear() {
  std::vector<Slot>().swap(slots_);
  size_ = 0;
}

Status PostingTable::CheckStructure() const {
  const std::size_t cap = capacity();
  if ((cap & (cap - 1)) != 0) {
    return Status::Internal("posting table capacity " + std::to_string(cap) +
                            " is not a power of two");
  }
  if (4 * size_ > 3 * cap) {
    return Status::Internal("posting table holds " + std::to_string(size_) +
                            " postings in " + std::to_string(cap) +
                            " slots, over the 3/4 load");
  }
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < cap; ++i) {
    if (!slots_[i].rid.valid()) continue;
    ++occupied;
    for (std::size_t j = HomeSlot(slots_[i].tag); j != i;
         j = (j + 1) & mask()) {
      if (!slots_[j].rid.valid()) {
        return Status::Internal("posting for " + slots_[i].rid.ToString() +
                                " in slot " + std::to_string(i) +
                                " is cut off from its home slot by empty "
                                "slot " + std::to_string(j));
      }
    }
  }
  if (occupied != size_) {
    return Status::Internal("posting table has " + std::to_string(occupied) +
                            " occupied slots but size() is " +
                            std::to_string(size_));
  }
  return Status::OK();
}

TupleStore::TupleStore(storage::SimulatedDisk* disk, std::size_t pad_to_bytes)
    : disk_(disk),
      pad_to_bytes_(pad_to_bytes),
      heap_(disk) {
  PROCSIM_CHECK(disk != nullptr);
  indexes_.try_emplace(0);
}

TupleStore::~TupleStore() {
  const Status freed = heap_.FreePages();
  PROCSIM_CHECK(freed.ok()) << freed.ToString();
}

std::size_t TupleStore::page_count() const { return heap_.pages().size(); }

Status TupleStore::Append(std::span<const Tuple> tuples) {
  for (auto& [column, index] : indexes_) index.Reserve(count_ + tuples.size());
  // One serialization buffer per thread, reused by every insert.
  thread_local std::vector<uint8_t> image;
  for (const Tuple& tuple : tuples) {
    tuple.SerializeInto(&image);
    Result<RecordId> rid = heap_.Insert(image, pad_to_bytes_);
    if (!rid.ok()) return rid.status();
    for (auto& [column, index] : indexes_) {
      index.Insert(PostingTable::TagOf(tuple.value(column).Hash()),
                   rid.ValueOrDie());
    }
    ++count_;
  }
  return Status::OK();
}

Status TupleStore::Insert(const Tuple& tuple) {
  return InsertMany(std::span<const Tuple>(&tuple, 1));
}

Status TupleStore::InsertMany(std::span<const Tuple> tuples) {
  PROCSIM_RETURN_IF_ERROR(Append(tuples));
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Result<Tuple> TupleStore::Decode(RecordId rid) const {
  Result<storage::ByteView> bytes = heap_.Read(rid);
  if (!bytes.ok()) return bytes.status();
  return Tuple::Deserialize(bytes.ValueOrDie());
}

std::optional<RecordId> TupleStore::Find(const Tuple& tuple) const {
  // Compare decoded tuples, not bytes: values equal under Value::Compare
  // (+0.0 and -0.0, NaN payloads) may encode differently.  A candidate
  // above the lowest match so far is not decoded.
  storage::MeteringGuard guard(disk_);
  std::optional<RecordId> found;
  indexes_.at(0).ForEachWithTag(
      PostingTable::TagOf(tuple.value(0).Hash()), [&](RecordId rid) {
        if (found.has_value() && !(rid < *found)) return;
        Result<Tuple> stored = Decode(rid);
        PROCSIM_CHECK(stored.ok()) << stored.status().ToString();
        if (stored.ValueOrDie() == tuple) found = rid;
      });
  return found;
}

Status TupleStore::Remove(const Tuple& tuple) {
  const std::optional<RecordId> rid = Find(tuple);
  if (!rid.has_value()) {
    return Status::NotFound("tuple not in store: " + tuple.ToString());
  }
  PROCSIM_RETURN_IF_ERROR(heap_.Delete(*rid));
  for (auto& [column, index] : indexes_) {
    const bool erased =
        index.Erase(PostingTable::TagOf(tuple.value(column).Hash()), *rid);
    PROCSIM_CHECK(erased) << "index on column " << column << " lost "
                          << rid->ToString();
  }
  --count_;
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

bool TupleStore::Contains(const Tuple& tuple) const {
  return Find(tuple).has_value();
}

Result<std::vector<Tuple>> TupleStore::ReadAll() const {
  std::vector<Tuple> out;
  out.reserve(count_);
  Status st = heap_.Scan([&](RecordId, storage::ByteView bytes) {
    Result<Tuple> tuple = Tuple::Deserialize(bytes);
    PROCSIM_CHECK(tuple.ok()) << tuple.status().ToString();
    out.push_back(tuple.TakeValueOrDie());
    return true;
  });
  if (!st.ok()) return st;
  return out;
}

void TupleStore::EnsureProbeIndex(std::size_t column) {
  auto [it, created] = indexes_.try_emplace(column);
  if (!created) return;
  PostingTable& index = it->second;
  index.Reserve(count_);
  storage::MeteringGuard guard(disk_);
  const Status scanned =
      heap_.Scan([&](RecordId rid, storage::ByteView bytes) {
        Result<rel::Value> value = Tuple::DeserializeValue(bytes, column);
        PROCSIM_CHECK(value.ok()) << value.status().ToString();
        index.Insert(PostingTable::TagOf(value.ValueOrDie().Hash()), rid);
        return true;
      });
  PROCSIM_CHECK(scanned.ok()) << scanned.ToString();
}

Status TupleStore::ProbeEqual(
    std::size_t column, int64_t key,
    const std::function<Status(Tuple&&)>& fn) const {
  auto index = indexes_.find(column);
  if (index == indexes_.end()) {
    return Status::InvalidArgument("no probe index on column " +
                                   std::to_string(column));
  }
  const rel::Value wanted(key);
  std::vector<RecordId> candidates;
  index->second.ForEachWithTag(
      PostingTable::TagOf(wanted.Hash()),
      [&](RecordId rid) { candidates.push_back(rid); });
  std::sort(candidates.begin(), candidates.end());
  for (RecordId rid : candidates) {
    Result<rel::Value> value = [&]() -> Result<rel::Value> {
      storage::MeteringGuard guard(disk_);
      Result<storage::ByteView> bytes = heap_.Read(rid);
      if (!bytes.ok()) return bytes.status();
      return Tuple::DeserializeValue(bytes.ValueOrDie(), column);
    }();
    if (!value.ok()) return value.status();
    if (!(value.ValueOrDie() == wanted)) continue;  // a tag collision
    // The charged fetch of a match.
    Result<storage::ByteView> bytes = heap_.Read(rid);
    if (!bytes.ok()) return bytes.status();
    Result<Tuple> tuple = Tuple::Deserialize(bytes.ValueOrDie());
    if (!tuple.ok()) return tuple.status();
    PROCSIM_RETURN_IF_ERROR(fn(tuple.TakeValueOrDie()));
  }
  return Status::OK();
}

Status TupleStore::Rebuild(const std::vector<Tuple>& tuples) {
  // Refreshing a cache is a read-modify-write of its pages: charge a read
  // for each page being replaced; Insert below charges the new writes.
  const std::size_t old_pages = page_count();
  PROCSIM_RETURN_IF_ERROR(heap_.FreePages());
  for (auto& [column, index] : indexes_) index.Clear();
  count_ = 0;
  if (disk_->metering_enabled() && disk_->meter() != nullptr) {
    disk_->meter()->ChargeDiskRead(old_pages);
  }
  storage::AccessScope scope(disk_);
  PROCSIM_RETURN_IF_ERROR(Append(tuples));
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

std::vector<Tuple> TupleStore::SnapshotForTesting() const {
  storage::MeteringGuard guard(disk_);
  Result<std::vector<Tuple>> all = ReadAll();
  PROCSIM_CHECK(all.ok()) << all.status().ToString();
  return all.TakeValueOrDie();
}

void TupleStore::ForEach(
    const std::function<bool(const Tuple&)>& fn) const {
  // `fn` keeps the caller's metering, so it cannot run inside an un-metered
  // scan: collect the record ids first, then decode each un-metered.
  std::vector<RecordId> rids;
  rids.reserve(count_);
  {
    storage::MeteringGuard guard(disk_);
    const Status scanned = heap_.Scan([&](RecordId rid, storage::ByteView) {
      rids.push_back(rid);
      return true;
    });
    PROCSIM_CHECK(scanned.ok()) << scanned.ToString();
  }
  for (RecordId rid : rids) {
    Result<Tuple> tuple = [&] {
      storage::MeteringGuard guard(disk_);
      return Decode(rid);
    }();
    PROCSIM_CHECK(tuple.ok()) << tuple.status().ToString();
    if (!fn(tuple.ValueOrDie())) return;
  }
}

Status TupleStore::CheckConsistency() const {
  storage::MeteringGuard guard(disk_);
  PROCSIM_RETURN_IF_ERROR(heap_.CheckConsistency());
  if (heap_.record_count() != count_) {
    return Status::Internal("heap holds " +
                            std::to_string(heap_.record_count()) +
                            " records but size() is " + std::to_string(count_));
  }
  for (const auto& [column, index] : indexes_) {
    const std::string name = "index on column " + std::to_string(column);
    if (const Status structure = index.CheckStructure(); !structure.ok()) {
      return Status::Internal(name + ": " + structure.ToString());
    }
    if (index.size() != count_) {
      return Status::Internal(name + " holds " + std::to_string(index.size()) +
                              " postings for " + std::to_string(count_) +
                              " tuples");
    }
    std::set<RecordId> named;
    PROCSIM_RETURN_IF_ERROR(index.ForEach([&](uint32_t tag, RecordId rid) {
      if (!named.insert(rid).second) {
        return Status::Internal(name + " names record " + rid.ToString() +
                                " twice");
      }
      Result<Tuple> stored = Decode(rid);
      if (!stored.ok()) {
        return Status::Internal(name + " names record " + rid.ToString() +
                                ", which is unreadable: " +
                                stored.status().ToString());
      }
      if (PostingTable::TagOf(stored.ValueOrDie().value(column).Hash()) !=
          tag) {
        return Status::Internal(
            "record " + rid.ToString() + " stores " +
            stored.ValueOrDie().ToString() + ", whose column " +
            std::to_string(column) + " does not hash to its index key");
      }
      return Status::OK();
    }));
  }
  return Status::OK();
}

}  // namespace procsim::ivm
