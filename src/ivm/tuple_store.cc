#include "ivm/tuple_store.h"

#include <algorithm>
#include <set>
#include <string>

#include "util/logging.h"

namespace procsim::ivm {

using rel::Tuple;
using storage::RecordId;

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

Status TupleStore::InsertInternal(const Tuple& tuple) {
  Result<RecordId> rid = heap_.Insert(tuple.Serialize(), pad_to_bytes_);
  if (!rid.ok()) return rid.status();
  for (auto& [column, index] : indexes_) {
    index.emplace(tuple.value(column).Hash(), rid.ValueOrDie());
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

std::optional<RecordId> TupleStore::Find(const Tuple& tuple) const {
  // Compare decoded tuples, not bytes: values equal under Value::Compare
  // (+0.0 and -0.0, NaN payloads) may encode differently.  A candidate
  // above the lowest match so far is not decoded.
  storage::MeteringGuard guard(disk_);
  std::optional<RecordId> found;
  auto [begin, end] = indexes_.at(0).equal_range(tuple.value(0).Hash());
  for (auto it = begin; it != end; ++it) {
    if (found.has_value() && !(it->second < *found)) continue;
    Result<Tuple> stored = Decode(it->second);
    PROCSIM_CHECK(stored.ok()) << stored.status().ToString();
    if (stored.ValueOrDie() == tuple) found = it->second;
  }
  return found;
}

Status TupleStore::Remove(const Tuple& tuple) {
  const std::optional<RecordId> rid = Find(tuple);
  if (!rid.has_value()) {
    return Status::NotFound("tuple not in store: " + tuple.ToString());
  }
  PROCSIM_RETURN_IF_ERROR(heap_.Delete(*rid));
  for (auto& [column, index] : indexes_) {
    auto [begin, end] = index.equal_range(tuple.value(column).Hash());
    for (auto it = begin; it != end; ++it) {
      if (it->second == *rid) {
        index.erase(it);
        break;
      }
    }
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
  Index& index = it->second;
  storage::MeteringGuard guard(disk_);
  const Status scanned =
      heap_.Scan([&](RecordId rid, storage::ByteView bytes) {
        Result<rel::Value> value = Tuple::DeserializeValue(bytes, column);
        PROCSIM_CHECK(value.ok()) << value.status().ToString();
        index.emplace(value.ValueOrDie().Hash(), rid);
        return true;
      });
  PROCSIM_CHECK(scanned.ok()) << scanned.ToString();
}

Result<std::vector<Tuple>> TupleStore::ProbeEqual(std::size_t column,
                                                  int64_t key) const {
  auto index = indexes_.find(column);
  if (index == indexes_.end()) {
    return Status::InvalidArgument("no probe index on column " +
                                   std::to_string(column));
  }
  const rel::Value wanted(key);
  std::vector<RecordId> candidates;
  auto [begin, end] = index->second.equal_range(wanted.Hash());
  for (auto it = begin; it != end; ++it) candidates.push_back(it->second);
  std::sort(candidates.begin(), candidates.end());
  std::vector<Tuple> out;
  for (RecordId rid : candidates) {
    Result<Tuple> tuple = [&] {
      storage::MeteringGuard guard(disk_);
      return Decode(rid);
    }();
    if (!tuple.ok()) return tuple.status();
    if (!(tuple.ValueOrDie().value(column) == wanted)) continue;  // collision
    // The charged fetch of a match.
    PROCSIM_RETURN_IF_ERROR(heap_.Read(rid).status());
    out.push_back(tuple.TakeValueOrDie());
  }
  return out;
}

Status TupleStore::Rebuild(const std::vector<Tuple>& tuples) {
  // Refreshing a cache is a read-modify-write of its pages: charge a read
  // for each page being replaced; Insert below charges the new writes.
  const std::size_t old_pages = page_count();
  PROCSIM_RETURN_IF_ERROR(heap_.FreePages());
  for (auto& [column, index] : indexes_) index.clear();
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
    if (index.size() != count_) {
      return Status::Internal(name + " holds " + std::to_string(index.size()) +
                              " postings for " + std::to_string(count_) +
                              " tuples");
    }
    std::set<RecordId> named;
    for (const auto& [hash, rid] : index) {
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
      if (stored.ValueOrDie().value(column).Hash() != hash) {
        return Status::Internal(
            "record " + rid.ToString() + " stores " +
            stored.ValueOrDie().ToString() + ", whose column " +
            std::to_string(column) + " does not hash to its index key");
      }
    }
  }
  return Status::OK();
}

}  // namespace procsim::ivm
