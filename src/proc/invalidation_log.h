#ifndef PROCSIM_PROC_INVALIDATION_LOG_H_
#define PROCSIM_PROC_INVALIDATION_LOG_H_

#include <functional>
#include <vector>

#include "util/latch.h"
#include "proc/procedure.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::proc {

/// \brief The in-memory validity bitmap of §3 of the paper (one bit per
/// procedure), whose invalidations are logged: "use conventional
/// write-ahead log recovery and log the identifiers of invalidated
/// procedures".
///
/// Recording an invalidation costs no data-page I/O — this is what
/// justifies the paper's C_inval ≈ 0 operating point.  The log itself is
/// not kept here: each real invalidation is handed to the mirror
/// (SetMirror), and the transaction layer's mirror appends it to the
/// engine's write-ahead log.  Re-validations are not logged: one follows a
/// recompute whose cached bytes are not durable, so recovery leaves the
/// procedure invalid either way.  The WAL, with its kCheckpoint bitmaps, is
/// the only record recovery reads (txn::TxnEngine::Recover, DESIGN.md §12).
///
/// Thread safety: bitmap reads, changes and the mirror call are serialized
/// by one kInvalidationLog-rank latch, so an invalidation and its WAL
/// append are one step — the WAL's order of invalidation records is the
/// bitmap's order of invalidations.
class InvalidationLog {
 public:
  /// \param procedure_count  size of the validity bitmap; all start valid
  explicit InvalidationLog(std::size_t procedure_count);
  InvalidationLog(const InvalidationLog&) = delete;
  InvalidationLog& operator=(const InvalidationLog&) = delete;

  bool IsValid(ProcId id) const;

  /// Marks `id` invalid and mirrors the invalidation.  Idempotent:
  /// re-marking an already-invalid procedure mirrors nothing (the paper's
  /// cost model likewise only charges real transitions when C_inval
  /// reflects logging).
  Status MarkInvalid(ProcId id);

  /// Marks `id` valid again (after its cache is refreshed).  Not mirrored.
  Status MarkValid(ProcId id);

  /// Copy of the whole bitmap, taken under the latch (what a WAL
  /// checkpoint record captures).
  std::vector<bool> Snapshot() const;

  /// Observer called (under the latch) with the procedure id of every real
  /// invalidation.  The transaction layer installs a hook that appends it
  /// to the engine's write-ahead log, tagged with the committing
  /// transaction — that is what makes invalidation state exactly as
  /// durable as the data it guards.  The hook must only acquire latches
  /// ranked above kInvalidationLog (the WAL's kWal qualifies).  Install at
  /// quiesce; pass nullptr to clear.
  using MirrorFn = std::function<void(ProcId)>;
  void SetMirror(MirrorFn mirror);

 private:
  /// Sets bit `id` to `valid`, mirroring a real invalidation.
  Status Change(ProcId id, bool valid);

  mutable util::RankedMutex latch_{
      util::LatchRank::kInvalidationLog, "InvalidationLog"};
  std::vector<bool> valid_ GUARDED_BY(latch_);
  MirrorFn mirror_ GUARDED_BY(latch_);
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_INVALIDATION_LOG_H_
