#include "relational/relation.h"

#include "util/logging.h"

namespace procsim::rel {

Relation::Relation(std::string name, Schema schema,
                   storage::SimulatedDisk* disk, const Options& options)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      disk_(disk),
      options_(options),
      heap_(disk) {
  PROCSIM_CHECK(disk != nullptr);
  if (options_.btree_column.has_value()) {
    PROCSIM_CHECK_LT(*options_.btree_column, schema_.num_columns());
    PROCSIM_CHECK(schema_.column(*options_.btree_column).type ==
                  ValueType::kInt64)
        << "btree column must be int64";
    btree_ = std::make_unique<storage::BTree>(disk_,
                                              options_.index_entry_bytes);
  }
  if (options_.hash_column.has_value()) {
    PROCSIM_CHECK_LT(*options_.hash_column, schema_.num_columns());
    PROCSIM_CHECK(schema_.column(*options_.hash_column).type ==
                  ValueType::kInt64)
        << "hash column must be int64";
    hash_ = std::make_unique<storage::HashIndex>(
        disk_, options_.expected_tuples, options_.index_entry_bytes);
  }
}

int64_t Relation::IndexKey(const Tuple& tuple, std::size_t column) const {
  return tuple.value(column).AsInt64();
}

Result<storage::RecordId> Relation::Insert(const Tuple& tuple) {
  PROCSIM_CHECK(tuple.TypeChecks(schema_))
      << name_ << ": tuple " << tuple.ToString() << " does not match schema "
      << schema_.ToString();
  Result<storage::RecordId> rid =
      heap_.Insert(tuple.Serialize(), options_.tuple_width_bytes);
  if (!rid.ok()) return rid.status();
  if (btree_ != nullptr) {
    PROCSIM_RETURN_IF_ERROR(btree_->Insert(
        IndexKey(tuple, *options_.btree_column), rid.ValueOrDie()));
  }
  if (hash_ != nullptr) {
    PROCSIM_RETURN_IF_ERROR(hash_->Insert(
        IndexKey(tuple, *options_.hash_column), rid.ValueOrDie()));
  }
  return rid;
}

Status Relation::Delete(storage::RecordId rid) {
  Result<Tuple> old_tuple = Read(rid);
  if (!old_tuple.ok()) return old_tuple.status();
  PROCSIM_RETURN_IF_ERROR(heap_.Delete(rid));
  if (btree_ != nullptr) {
    PROCSIM_RETURN_IF_ERROR(btree_->Delete(
        IndexKey(old_tuple.ValueOrDie(), *options_.btree_column), rid));
  }
  if (hash_ != nullptr) {
    PROCSIM_RETURN_IF_ERROR(hash_->Delete(
        IndexKey(old_tuple.ValueOrDie(), *options_.hash_column), rid));
  }
  return Status::OK();
}

Status Relation::UpdateInPlace(storage::RecordId rid, const Tuple& new_tuple) {
  PROCSIM_CHECK(new_tuple.TypeChecks(schema_));
  Result<Tuple> old_tuple = Read(rid);
  if (!old_tuple.ok()) return old_tuple.status();
  PROCSIM_RETURN_IF_ERROR(
      heap_.Update(rid, new_tuple.Serialize(), options_.tuple_width_bytes));
  if (btree_ != nullptr) {
    const int64_t old_key =
        IndexKey(old_tuple.ValueOrDie(), *options_.btree_column);
    const int64_t new_key = IndexKey(new_tuple, *options_.btree_column);
    if (old_key != new_key) {
      PROCSIM_RETURN_IF_ERROR(btree_->Delete(old_key, rid));
      PROCSIM_RETURN_IF_ERROR(btree_->Insert(new_key, rid));
    }
  }
  if (hash_ != nullptr) {
    const int64_t old_key =
        IndexKey(old_tuple.ValueOrDie(), *options_.hash_column);
    const int64_t new_key = IndexKey(new_tuple, *options_.hash_column);
    if (old_key != new_key) {
      PROCSIM_RETURN_IF_ERROR(hash_->Delete(old_key, rid));
      PROCSIM_RETURN_IF_ERROR(hash_->Insert(new_key, rid));
    }
  }
  return Status::OK();
}

Result<Tuple> Relation::Read(storage::RecordId rid) const {
  Result<storage::ByteView> bytes = heap_.Read(rid);
  if (!bytes.ok()) return bytes.status();
  return Tuple::Deserialize(bytes.ValueOrDie());
}

Status Relation::Scan(
    const std::function<bool(storage::RecordId, const Tuple&)>& fn) const {
  return heap_.Scan([&](storage::RecordId rid, storage::ByteView bytes) {
    Result<Tuple> tuple = Tuple::Deserialize(bytes);
    PROCSIM_CHECK(tuple.ok()) << tuple.status().ToString();
    return fn(rid, tuple.ValueOrDie());
  });
}

Status Relation::BTreeRange(
    int64_t lo, int64_t hi,
    const std::function<bool(storage::RecordId, const Tuple&)>& fn) const {
  if (btree_ == nullptr) {
    return Status::InvalidArgument(name_ + " has no B-tree index");
  }
  Status scan_status = Status::OK();
  PROCSIM_RETURN_IF_ERROR(
      btree_->RangeScan(lo, hi, [&](int64_t, storage::RecordId rid) {
        Result<Tuple> tuple = Read(rid);
        if (!tuple.ok()) {
          scan_status = tuple.status();
          return false;
        }
        return fn(rid, tuple.ValueOrDie());
      }));
  return scan_status;
}

Result<std::vector<Tuple>> Relation::HashProbe(int64_t key) const {
  if (hash_ == nullptr) {
    return Status::InvalidArgument(name_ + " has no hash index");
  }
  Result<std::vector<storage::RecordId>> rids = hash_->Search(key);
  if (!rids.ok()) return rids.status();
  std::vector<Tuple> tuples;
  tuples.reserve(rids.ValueOrDie().size());
  for (storage::RecordId rid : rids.ValueOrDie()) {
    Result<Tuple> tuple = Read(rid);
    if (!tuple.ok()) return tuple.status();
    tuples.push_back(tuple.TakeValueOrDie());
  }
  return tuples;
}

}  // namespace procsim::rel
