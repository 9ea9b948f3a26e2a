#ifndef PROCSIM_AUDIT_VALIDATE_H_
#define PROCSIM_AUDIT_VALIDATE_H_

#include <cstddef>

#include "proc/cache_budget.h"
#include "proc/ilock.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "sim/simulator.h"
#include "storage/page.h"
#include "txn/engine.h"

namespace procsim::audit {

// Deep invariant validators.  Each returns OK when the structure is
// internally consistent and a Status::Internal with a diagnostic message
// when corruption is detected.  All validators are un-metered: they never
// charge the cost meter, so they can run between workload operations
// without distorting the paper's measurements.  The same checks run
// automatically after every mutation in PROCSIM_AUDIT builds (see
// PROCSIM_AUDIT_OK in util/logging.h).  A structure whose own check is
// the whole validator has no wrapper here: B-trees (CheckInvariants()),
// heap files, tuple stores and buffer caches (CheckConsistency()) and Rete
// networks (ValidateState()).

/// Slotted page: slot directory vs free-space accounting, plus a
/// serialize/deserialize round trip that must reproduce every live record's
/// logical image (its stored bytes, then the zeros it only accounts).
Status ValidatePage(const storage::Page& page);

/// I-lock table: no dangling locks — every owner is a live procedure id
/// (< procedure_count) and every interval is non-empty (lo <= hi).
Status ValidateILockTable(const proc::ILockTable& locks,
                          std::size_t procedure_count);

/// Cache budget: per-shard accounted bytes must equal the sum over live
/// entries of that shard, every dead (evicted) entry must account zero
/// bytes, and no shard may exceed its byte budget.  Run at quiescent points
/// only (entries resize during transactions).
Status ValidateCacheBudget(const proc::CacheBudget& budget);

/// Relation: heap contents, B-tree and hash index must agree — every stored
/// tuple is indexed under its key and every index entry resolves to a live
/// record with that key.
Status ValidateRelation(const rel::Relation& relation,
                        storage::SimulatedDisk* disk);

/// Runs ValidateRelation over every relation in the catalog.
Status ValidateCatalog(const rel::Catalog& catalog);

/// The sweep every quiescent check runs over one engine: its database's
/// catalog, every Rete network and i-lock table its strategies keep
/// (Hybrid's private RVM and CacheInvalidate included), the shared cache
/// budget, and the write-ahead log's consistency.
Status ValidateEngine(txn::TxnEngine& engine);

}  // namespace procsim::audit

#endif  // PROCSIM_AUDIT_VALIDATE_H_
