#include "audit/validate.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "proc/cache_invalidate.h"
#include "proc/hybrid.h"
#include "proc/update_cache_rvm.h"
#include "storage/disk.h"
#include "util/logging.h"

namespace procsim::audit {

namespace {

/// A live heap record and the keys it must be indexed under.
struct LiveRecord {
  storage::RecordId rid;
  int64_t btree_key = 0;
  int64_t hash_key = 0;
};

/// One index (B-tree or hash) of `relation` must hold one entry per live
/// record, and each record must be findable under its `key`.  Entry-count
/// equality plus forward containment makes the mapping a bijection ((key,
/// rid) pairs are unique).
template <typename Index>
Status CheckIndexCoversRecords(const rel::Relation& relation,
                               const Index& index, const std::string& label,
                               const std::vector<LiveRecord>& live,
                               int64_t LiveRecord::*key) {
  if (index.entry_count() != live.size()) {
    return Status::Internal(relation.name() + " " + label + " holds " +
                            std::to_string(index.entry_count()) +
                            " entries for " + std::to_string(live.size()) +
                            " live records");
  }
  for (const LiveRecord& record : live) {
    Result<std::vector<storage::RecordId>> rids = index.Search(record.*key);
    PROCSIM_RETURN_IF_ERROR(rids.status());
    if (std::ranges::find(rids.ValueOrDie(), record.rid) ==
        rids.ValueOrDie().end()) {
      return Status::Internal(relation.name() + " record " +
                              record.rid.ToString() + " missing from " +
                              label + " under key " +
                              std::to_string(record.*key));
    }
  }
  return Status::OK();
}

/// Validates the Rete network or i-lock table `strategy` keeps, recursing
/// into a Hybrid's private sub-strategies.
Status ValidateStrategy(const proc::Strategy& strategy) {
  if (const auto* rvm =
          dynamic_cast<const proc::UpdateCacheRvmStrategy*>(&strategy)) {
    if (rvm->network() != nullptr) return rvm->network()->ValidateState();
  } else if (const auto* ci =
                 dynamic_cast<const proc::CacheInvalidateStrategy*>(
                     &strategy)) {
    return ValidateILockTable(ci->lock_table(), ci->procedures().size());
  } else if (const auto* hybrid =
                 dynamic_cast<const proc::HybridStrategy*>(&strategy)) {
    for (const std::unique_ptr<proc::Strategy>& sub : hybrid->subs()) {
      PROCSIM_RETURN_IF_ERROR(ValidateStrategy(*sub));
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidatePage(const storage::Page& page) {
  PROCSIM_RETURN_IF_ERROR(page.CheckConsistency());
  // Round-trip the on-disk image: the deserialized page must hold the same
  // live records in the same slots.  Compare logical images, not views: the
  // reloaded page stores the zero padding its original only accounts.
  Result<storage::Page> reloaded = storage::Page::Deserialize(page.Serialize());
  if (!reloaded.ok()) {
    return Status::Internal("page does not survive serialization: " +
                            reloaded.status().ToString());
  }
  const storage::Page& copy = reloaded.ValueOrDie();
  PROCSIM_RETURN_IF_ERROR(copy.CheckConsistency());
  if (copy.live_count() != page.live_count() ||
      copy.slot_count() != page.slot_count() ||
      copy.FreeSpace() != page.FreeSpace()) {
    return Status::Internal("page round trip changed slot accounting");
  }
  for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
    if (page.IsLive(slot) != copy.IsLive(slot)) {
      return Status::Internal("page round trip changed liveness of slot " +
                              std::to_string(slot));
    }
    if (!page.IsLive(slot)) continue;
    // The copy stores the whole logical record: the original's stored
    // bytes, then zeros.
    Result<storage::ByteView> original = page.View(slot);
    Result<storage::ByteView> reread = copy.View(slot);
    if (!original.ok() || !reread.ok()) {
      return Status::Internal("page round trip lost the record in slot " +
                              std::to_string(slot));
    }
    const storage::ByteView stored = original.ValueOrDie();
    const storage::ByteView logical = reread.ValueOrDie();
    if (logical.size() < stored.size() ||
        !std::ranges::equal(stored, logical.first(stored.size())) ||
        !std::ranges::all_of(logical.subspan(stored.size()),
                             [](uint8_t byte) { return byte == 0; })) {
      return Status::Internal("page round trip changed payload of slot " +
                              std::to_string(slot));
    }
  }
  return Status::OK();
}

Status ValidateILockTable(const proc::ILockTable& locks,
                          std::size_t procedure_count) {
  Status status = Status::OK();
  locks.ForEachLock([&](const std::string& relation, proc::ProcId owner,
                        std::size_t column, int64_t lo, int64_t hi) {
    if (!status.ok()) return;
    if (owner >= procedure_count) {
      status = Status::Internal(
          "dangling i-lock on " + relation + ": owner " +
          std::to_string(owner) + " is not a live procedure (count " +
          std::to_string(procedure_count) + ")");
      return;
    }
    if (lo > hi) {
      status = Status::Internal(
          "empty i-lock interval [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "] on " + relation + " column " +
          std::to_string(column) + " held by procedure " +
          std::to_string(owner));
    }
  });
  return status;
}

Status ValidateCacheBudget(const proc::CacheBudget& budget) {
  std::vector<std::size_t> live_bytes(budget.shard_count(), 0);
  Status status = Status::OK();
  budget.ForEachEntry([&](const proc::CacheBudget::EntryInfo& entry) {
    if (!status.ok()) return;
    if (!entry.live) {
      if (entry.bytes != 0) {
        status = Status::Internal(
            "evicted cache entry \"" + entry.label + "\" still accounts " +
            std::to_string(entry.bytes) + " bytes");
      }
      return;
    }
    live_bytes[entry.shard] += entry.bytes;
  });
  PROCSIM_RETURN_IF_ERROR(status);
  for (std::size_t shard = 0; shard < budget.shard_count(); ++shard) {
    const std::size_t accounted = budget.shard_accounted_bytes(shard);
    if (accounted != live_bytes[shard]) {
      return Status::Internal(
          "cache budget accounting drift in shard " + std::to_string(shard) +
          ": accounted " + std::to_string(accounted) +
          " bytes, live entries sum to " + std::to_string(live_bytes[shard]));
    }
    if (!budget.unlimited() && accounted > budget.shard_budget_bytes()) {
      return Status::Internal(
          "cache budget shard " + std::to_string(shard) + " holds " +
          std::to_string(accounted) + " bytes, over its slice of " +
          std::to_string(budget.shard_budget_bytes()));
    }
  }
  return Status::OK();
}

Status ValidateRelation(const rel::Relation& relation,
                        storage::SimulatedDisk* disk) {
  storage::MeteringGuard guard(disk);

  // Heap contents and record count, via the scan; collect indexed keys.
  std::vector<LiveRecord> live;
  std::size_t scanned = 0;
  Status scan_status = Status::OK();
  auto indexed_key = [&](const rel::Tuple& tuple, std::size_t column,
                         const char* label, storage::RecordId rid,
                         int64_t* out) {
    if (column >= tuple.arity() || !tuple.value(column).is_int64()) {
      scan_status = Status::Internal(
          relation.name() + " record " + rid.ToString() +
          " lacks an int64 " + label + " key in column " +
          std::to_string(column));
      return false;
    }
    *out = tuple.value(column).AsInt64();
    return true;
  };
  PROCSIM_RETURN_IF_ERROR(relation.Scan(
      [&](storage::RecordId rid, const rel::Tuple& tuple) {
        ++scanned;
        LiveRecord record;
        record.rid = rid;
        if (relation.btree_column().has_value() &&
            !indexed_key(tuple, *relation.btree_column(), "btree", rid,
                         &record.btree_key)) {
          return false;
        }
        if (relation.hash_column().has_value() &&
            !indexed_key(tuple, *relation.hash_column(), "hash", rid,
                         &record.hash_key)) {
          return false;
        }
        live.push_back(record);
        return true;
      }));
  PROCSIM_RETURN_IF_ERROR(scan_status);
  if (scanned != relation.tuple_count()) {
    return Status::Internal(relation.name() + " scan found " +
                            std::to_string(scanned) + " tuples but " +
                            std::to_string(relation.tuple_count()) +
                            " are recorded");
  }

  if (relation.has_btree()) {
    PROCSIM_RETURN_IF_ERROR(relation.btree()->CheckInvariants());
    PROCSIM_RETURN_IF_ERROR(CheckIndexCoversRecords(
        relation, *relation.btree(), "btree", live, &LiveRecord::btree_key));
  }
  if (relation.has_hash_index()) {
    PROCSIM_RETURN_IF_ERROR(
        CheckIndexCoversRecords(relation, *relation.hash_index(),
                                "hash index", live, &LiveRecord::hash_key));
  }
  return Status::OK();
}

Status ValidateCatalog(const rel::Catalog& catalog) {
  for (const std::string& name : catalog.RelationNames()) {
    Result<rel::Relation*> relation = catalog.GetRelation(name);
    PROCSIM_RETURN_IF_ERROR(relation.status());
    PROCSIM_RETURN_IF_ERROR(
        ValidateRelation(*relation.ValueOrDie(), catalog.disk()));
  }
  return Status::OK();
}

Status ValidateEngine(txn::TxnEngine& engine) {
  const sim::StrategySet& strategies = engine.strategies();
  PROCSIM_RETURN_IF_ERROR(ValidateCatalog(*engine.database()->catalog));
  for (const std::unique_ptr<proc::Strategy>& strategy : strategies.all) {
    PROCSIM_RETURN_IF_ERROR(ValidateStrategy(*strategy));
  }
  PROCSIM_RETURN_IF_ERROR(ValidateCacheBudget(*strategies.budget));
  return engine.wal().CheckConsistency();
}

}  // namespace procsim::audit
