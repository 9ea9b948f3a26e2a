#ifndef PROCSIM_STORAGE_WAL_H_
#define PROCSIM_STORAGE_WAL_H_

#include <cstdint>
#include <vector>

#include "util/cost_meter.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::storage {

/// \brief One write-ahead-log record.  The WAL lives in the storage layer,
/// below sim/proc in the module DAG, so records carry only untyped payloads;
/// the txn layer owns the encoding (a mutation record's payload is the
/// sim::WorkloadOp kind + its self-contained RNG seed, an invalidation
/// record's payload is the id of the procedure whose proc::InvalidationLog
/// bit went from valid to invalid).  As in §3 of the paper, only
/// invalidations are logged: a re-validation follows a recompute, and
/// cached bytes are not durable, so recovery never restores one.  This log
/// is the only record of invalidations: the bitmap keeps none of its own.
///
/// Recovery contract (enforced by txn::TxnEngine::Recover): a transaction's
/// effects are durable iff its kCommit record survives the crash prefix.
/// Mutation and invalidation records always precede their transaction's
/// commit record, so a prefix cut anywhere yields a well-formed redo log.
struct WalRecord {
  enum class Kind : uint8_t {
    kBegin = 0,       ///< transaction start
    kMutation = 1,    ///< redo record: a=op kind, b=op value (private seed)
    kCommit = 2,      ///< commit point — the txn is durable iff this survives
    kAbort = 3,       ///< transaction rolled back; its records are dead
    kInvalidate = 4,  ///< a procedure became invalid: a=procedure id
    kCheckpoint = 6,  ///< bitmap=validity snapshot; a, b unused
  };

  uint64_t lsn = 0;
  Kind kind = Kind::kBegin;
  uint64_t txn = 0;  ///< owning transaction; 0 for checkpoint records
  uint64_t a = 0;    ///< kind-dependent payload (see Kind comments)
  uint64_t b = 0;    ///< kind-dependent payload (see Kind comments)
  /// kCheckpoint only: the validity bitmap captured at a group-flush
  /// boundary.  Recovery applies the invalidation records after it to
  /// this snapshot.
  std::vector<bool> bitmap;
};

const char* WalRecordKindName(WalRecord::Kind kind);

/// \brief An append-only, LSN-sequenced write-ahead log.
///
/// Storage is modeled in memory, like SimulatedDisk pages: what the model
/// charges for is the *force* (a sequential log write at group-commit
/// boundaries), not the append — appends into the log tail are amortized
/// across the group exactly as the paper amortizes C_inval over batched
/// invalidations.  Force cost is configurable so the serving engine can run
/// at the paper's C_inval ≈ 0 operating point (force_cost_ms = 0, goldens
/// unchanged) while fig21 dials in a real sequential-write cost to expose
/// the group-commit latency/throughput trade.
///
/// Thread safety: one kWal-rank latch serializes appends, forces and
/// truncation — LSNs form a single total order.  The latch ranks *above*
/// kInvalidationLog because an invalidation is appended here while the
/// bitmap's latch is held.  Snapshot() copies the records under the latch,
/// so the crash harness can slice prefixes without racing live appends.
class WriteAheadLog {
 public:
  /// \param meter          charged force_cost_ms per Force(); may be null
  /// \param force_cost_ms  simulated cost of one log force (sequential I/O)
  explicit WriteAheadLog(CostMeter* meter = nullptr,
                         double force_cost_ms = 0.0);
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  uint64_t AppendBegin(uint64_t txn);
  uint64_t AppendMutation(uint64_t txn, uint64_t op_kind, uint64_t op_value);
  uint64_t AppendCommit(uint64_t txn);
  uint64_t AppendAbort(uint64_t txn);
  uint64_t AppendInvalidate(uint64_t txn, uint64_t procedure);
  uint64_t AppendCheckpoint(std::vector<bool> bitmap);

  /// Forces the log tail to "disk": charges the force cost to the meter and
  /// counts the wal.log.forces metric.  Durability itself is modeled by the
  /// crash harness (a crash prefix is cut at a record boundary, so every
  /// appended record is individually at risk until the harness keeps it).
  void Force();

  /// Replaces this log's contents with `records` verbatim, resuming LSNs
  /// past the highest one present.  Recovery uses this to seed the revived
  /// engine's log with the surviving prefix, so a recovered engine can
  /// itself crash and recover (the idempotence proof).
  Status ResetFrom(std::vector<WalRecord> records);

  /// Copy of the whole log in LSN order, taken under the latch.
  std::vector<WalRecord> Snapshot() const;

  /// Drops records with lsn <= `lsn` (reclaimed after a checkpoint makes
  /// them redundant) and remembers the truncation point: a later recovery
  /// attempt that needs the dropped prefix must fail loudly, not silently
  /// replay a hole.
  void TruncateThrough(uint64_t lsn);

  std::size_t size() const;
  uint64_t next_lsn() const;
  uint64_t truncated_through() const;
  double force_cost_ms() const { return force_cost_ms_; }

  /// Structural invariants: LSNs strictly increase, stay below next_lsn(),
  /// and start after the truncation point; commit/abort records terminate
  /// transactions at most once; checkpoint records carry a bitmap.
  Status CheckConsistency() const;

 private:
  uint64_t Append(WalRecord record);

  const double force_cost_ms_;
  CostMeter* const meter_;
  mutable util::RankedMutex latch_{util::LatchRank::kWal, "WriteAheadLog"};
  std::vector<WalRecord> records_ GUARDED_BY(latch_);
  uint64_t next_lsn_ GUARDED_BY(latch_) = 1;
  uint64_t truncated_through_ GUARDED_BY(latch_) = 0;
};

}  // namespace procsim::storage

#endif  // PROCSIM_STORAGE_WAL_H_
