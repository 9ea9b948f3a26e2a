#ifndef PROCSIM_PROC_INVALIDATION_LOG_H_
#define PROCSIM_PROC_INVALIDATION_LOG_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/latch.h"
#include "proc/procedure.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::proc {

/// \brief The in-memory validity bitmap of §3 of the paper (one bit per
/// procedure), whose every change is logged: "use conventional write-ahead
/// log recovery and log the identifiers of invalidated procedures".
///
/// Recording an invalidation costs no data-page I/O — this is what
/// justifies the paper's C_inval ≈ 0 operating point.  The log itself is
/// not kept here: each real change is handed to the mirror (SetMirror), and
/// the transaction layer's mirror appends it to the engine's write-ahead
/// log.  That WAL, with its kCheckpoint bitmaps, is the only record
/// recovery reads (txn::TxnEngine::Recover, DESIGN.md §12).
///
/// Thread safety: bitmap reads, changes and the mirror call are serialized
/// by one kInvalidationLog-rank latch, so a change and its WAL append are
/// one step — the WAL's order of validity records is the bitmap's order of
/// changes.
class InvalidationLog {
 public:
  /// One validity change: procedure `procedure` became invalid
  /// (kInvalidate) or valid again after a recompute (kValidate).
  struct Record {
    enum class Kind : uint8_t { kInvalidate = 0, kValidate = 1 };
    Kind kind = Kind::kInvalidate;
    ProcId procedure = 0;
  };

  /// \param procedure_count  size of the validity bitmap; all start valid
  explicit InvalidationLog(std::size_t procedure_count);
  InvalidationLog(const InvalidationLog&) = delete;
  InvalidationLog& operator=(const InvalidationLog&) = delete;

  bool IsValid(ProcId id) const;

  /// Marks `id` invalid and mirrors the change.  Idempotent: re-marking an
  /// already-invalid procedure mirrors nothing (the paper's cost model
  /// likewise only charges real transitions when C_inval reflects logging).
  Status MarkInvalid(ProcId id);

  /// Marks `id` valid again (after its cache is refreshed), mirroring it.
  Status MarkValid(ProcId id);

  /// Copy of the whole bitmap, taken under the latch (what a WAL
  /// checkpoint record captures).
  std::vector<bool> Snapshot() const;

  /// Observer called (under the latch) once for every real change.  The
  /// transaction layer installs a hook that appends the change to the
  /// engine's write-ahead log, tagged with the mutating transaction — that
  /// is what makes invalidation state exactly as durable as the data it
  /// guards.  The hook must only acquire latches ranked above
  /// kInvalidationLog (the WAL's kWal qualifies).  Install at quiesce; pass
  /// nullptr to clear.
  using MirrorFn = std::function<void(const Record&)>;
  void SetMirror(MirrorFn mirror);

 private:
  Status Change(Record::Kind kind, ProcId id);

  mutable util::RankedMutex latch_{
      util::LatchRank::kInvalidationLog, "InvalidationLog"};
  std::vector<bool> valid_ GUARDED_BY(latch_);
  MirrorFn mirror_ GUARDED_BY(latch_);
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_INVALIDATION_LOG_H_
