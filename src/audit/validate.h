#ifndef PROCSIM_AUDIT_VALIDATE_H_
#define PROCSIM_AUDIT_VALIDATE_H_

#include <cstddef>

#include "ivm/tuple_store.h"
#include "proc/cache_budget.h"
#include "proc/ilock.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "rete/network.h"
#include "sim/simulator.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace procsim::audit {

// Deep invariant validators.  Each returns OK when the structure is
// internally consistent and a Status::Internal with a diagnostic message
// when corruption is detected.  All validators are un-metered: they never
// charge the cost meter, so they can run between workload operations
// without distorting the paper's measurements.  The same checks run
// automatically after every mutation in PROCSIM_AUDIT builds (see
// PROCSIM_AUDIT_OK in util/logging.h).

/// B-tree: sorted keys, separator bounds, fanout fill bounds, uniform leaf
/// depth, leaf-chain (key, rid) ordering, and chain-vs-entry_count
/// agreement.
Status ValidateBTree(const storage::BTree& tree);

/// Slotted page: slot directory vs free-space accounting, plus a
/// serialize/deserialize round trip that must reproduce every live record's
/// logical image (its stored bytes, then the zeros it only accounts).
Status ValidatePage(const storage::Page& page);

/// Heap file: page list and per-page live counts vs record_count().
Status ValidateHeapFile(const storage::HeapFile& file);

/// Buffer cache: LRU/frame agreement, capacity, pin accounting and dirty
/// residency.  With `expect_unpinned` set, any outstanding pin (a leak at a
/// quiescent point) is an error.
Status ValidateBufferCache(const storage::BufferCache& cache,
                           bool expect_unpinned = false);

/// Tuple store: heap, tuple map and probe indexes must describe one bag.
Status ValidateTupleStore(const ivm::TupleStore& store);

/// Rete network: every α-memory equals a from-scratch recomputation of its
/// selection and every β-memory equals the join of its inputs.
Status ValidateReteNetwork(const rete::ReteNetwork& network);

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

/// The structure sweep every quiescent check runs over one database and its
/// six strategies: the catalog, the RVM Rete network, CacheInvalidate's
/// i-lock table, and the shared cache budget.
Status ValidateStructures(const sim::Database& db,
                          const sim::StrategySet& strategies);

}  // namespace procsim::audit

#endif  // PROCSIM_AUDIT_VALIDATE_H_
