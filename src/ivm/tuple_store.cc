#include "ivm/tuple_store.h"

#include <set>

#include "util/logging.h"

namespace procsim::ivm {

using rel::Tuple;
using storage::RecordId;

TupleStore::TupleStore(storage::SimulatedDisk* disk, std::size_t pad_to_bytes)
    : disk_(disk),
      pad_to_bytes_(pad_to_bytes),
      heap_(disk) {
  PROCSIM_CHECK(disk != nullptr);
}

TupleStore::~TupleStore() {
  const Status freed = heap_.FreePages();
  PROCSIM_CHECK(freed.ok()) << freed.ToString();
}

std::size_t TupleStore::page_count() const { return heap_.pages().size(); }

Status TupleStore::InsertInternal(const Tuple& tuple) {
  Result<RecordId> rid = heap_.Insert(tuple.Serialize(), pad_to_bytes_);
  if (!rid.ok()) return rid.status();
  by_tuple_.emplace(tuple.Hash(), rid.ValueOrDie());
  for (auto& [column, index] : probe_indexes_) {
    index.emplace(tuple.value(column).AsInt64(), rid.ValueOrDie());
  }
  ++count_;
  return Status::OK();
}

Status TupleStore::Insert(const Tuple& tuple) {
  PROCSIM_RETURN_IF_ERROR(InsertInternal(tuple));
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Result<Tuple> TupleStore::Decode(RecordId rid) const {
  Result<storage::ByteView> bytes = heap_.Read(rid);
  if (!bytes.ok()) return bytes.status();
  return Tuple::Deserialize(bytes.ValueOrDie());
}

TupleStore::TupleMap::const_iterator TupleStore::Find(
    const Tuple& tuple) const {
  // Compare decoded tuples, not bytes: values equal under Value::Compare
  // (+0.0 and -0.0, NaN payloads) may encode differently.
  storage::MeteringGuard guard(disk_);
  auto [begin, end] = by_tuple_.equal_range(tuple.Hash());
  for (auto it = begin; it != end; ++it) {
    Result<Tuple> stored = Decode(it->second);
    PROCSIM_CHECK(stored.ok()) << stored.status().ToString();
    if (stored.ValueOrDie() == tuple) return it;
  }
  return by_tuple_.end();
}

Status TupleStore::Remove(const Tuple& tuple) {
  const auto it = Find(tuple);
  if (it == by_tuple_.end()) {
    return Status::NotFound("tuple not in store: " + tuple.ToString());
  }
  const RecordId rid = it->second;
  PROCSIM_RETURN_IF_ERROR(heap_.Delete(rid));
  for (auto& [column, index] : probe_indexes_) {
    const int64_t key = tuple.value(column).AsInt64();
    auto [kbegin, kend] = index.equal_range(key);
    for (auto kit = kbegin; kit != kend; ++kit) {
      if (kit->second == rid) {
        index.erase(kit);
        break;
      }
    }
  }
  by_tuple_.erase(it);
  --count_;
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

bool TupleStore::Contains(const Tuple& tuple) const {
  return Find(tuple) != by_tuple_.end();
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
  if (probe_indexes_.contains(column)) return;
  auto& index = probe_indexes_[column];
  storage::MeteringGuard guard(disk_);
  for (const auto& [hash, rid] : by_tuple_) {
    Result<storage::ByteView> bytes = heap_.Read(rid);
    PROCSIM_CHECK(bytes.ok()) << bytes.status().ToString();
    Result<rel::Value> key =
        Tuple::DeserializeValue(bytes.ValueOrDie(), column);
    PROCSIM_CHECK(key.ok()) << key.status().ToString();
    index.emplace(key.ValueOrDie().AsInt64(), rid);
  }
}

Result<std::vector<Tuple>> TupleStore::ProbeEqual(std::size_t column,
                                                  int64_t key) const {
  auto index_it = probe_indexes_.find(column);
  if (index_it == probe_indexes_.end()) {
    return Status::InvalidArgument("no probe index on column " +
                                   std::to_string(column));
  }
  std::vector<Tuple> out;
  auto [begin, end] = index_it->second.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    Result<storage::ByteView> bytes = heap_.Read(it->second);
    if (!bytes.ok()) return bytes.status();
    Result<Tuple> tuple = Tuple::Deserialize(bytes.ValueOrDie());
    if (!tuple.ok()) return tuple.status();
    out.push_back(tuple.TakeValueOrDie());
  }
  return out;
}

Status TupleStore::Rebuild(const std::vector<Tuple>& tuples) {
  // Refreshing a cache is a read-modify-write of its pages: charge a read
  // for each page being replaced; Insert below charges the new writes.
  const std::size_t old_pages = page_count();
  PROCSIM_RETURN_IF_ERROR(heap_.FreePages());
  by_tuple_.clear();
  for (auto& [column, index] : probe_indexes_) index.clear();
  count_ = 0;
  if (disk_->metering_enabled() && disk_->meter() != nullptr) {
    disk_->meter()->ChargeDiskRead(old_pages);
  }
  storage::AccessScope scope(disk_);
  for (const Tuple& tuple : tuples) {
    PROCSIM_RETURN_IF_ERROR(InsertInternal(tuple));
  }
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

std::vector<Tuple> TupleStore::SnapshotForTesting() const {
  std::vector<Tuple> out;
  out.reserve(count_);
  storage::MeteringGuard guard(disk_);
  for (const auto& [hash, rid] : by_tuple_) {
    Result<Tuple> tuple = Decode(rid);
    PROCSIM_CHECK(tuple.ok()) << tuple.status().ToString();
    out.push_back(tuple.TakeValueOrDie());
  }
  return out;
}

void TupleStore::ForEach(
    const std::function<bool(const Tuple&)>& fn) const {
  for (const auto& [hash, rid] : by_tuple_) {
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
  if (by_tuple_.size() != count_) {
    return Status::Internal("tuple map holds " +
                            std::to_string(by_tuple_.size()) +
                            " entries but size() is " + std::to_string(count_));
  }
  if (heap_.record_count() != count_) {
    return Status::Internal("heap holds " +
                            std::to_string(heap_.record_count()) +
                            " records but size() is " + std::to_string(count_));
  }
  std::set<RecordId> mapped;
  for (const auto& [hash, rid] : by_tuple_) {
    if (!mapped.insert(rid).second) {
      return Status::Internal("tuple map names record " + rid.ToString() +
                              " twice");
    }
    Result<Tuple> stored = Decode(rid);
    if (!stored.ok()) {
      return Status::Internal("mapped record " + rid.ToString() +
                              " unreadable: " + stored.status().ToString());
    }
    if (hash != stored.ValueOrDie().Hash()) {
      return Status::Internal("record " + rid.ToString() + " stores " +
                              stored.ValueOrDie().ToString() +
                              ", which does not hash to its tuple map key");
    }
  }
  for (const auto& [column, index] : probe_indexes_) {
    if (index.size() != count_) {
      return Status::Internal(
          "probe index on column " + std::to_string(column) + " holds " +
          std::to_string(index.size()) + " postings for " +
          std::to_string(count_) + " tuples");
    }
    for (const auto& [key, rid] : index) {
      Result<storage::ByteView> bytes = heap_.Read(rid);
      if (!bytes.ok()) {
        return Status::Internal("probe index posting " + rid.ToString() +
                                " unreadable: " + bytes.status().ToString());
      }
      Result<Tuple> stored = Tuple::Deserialize(bytes.ValueOrDie());
      if (!stored.ok()) return stored.status();
      if (stored.ValueOrDie().value(column).AsInt64() != key) {
        return Status::Internal(
            "probe index on column " + std::to_string(column) +
            " maps key " + std::to_string(key) + " to record " +
            rid.ToString() + " holding " + stored.ValueOrDie().ToString());
      }
    }
  }
  return Status::OK();
}

}  // namespace procsim::ivm
