#ifndef PROCSIM_UTIL_LATCH_H_
#define PROCSIM_UTIL_LATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/thread_annotations.h"

namespace procsim::util {

/// \brief Global latch acquisition order for the multi-session engine.
///
/// Deadlock freedom is structural: a thread may only acquire a latch whose
/// rank is strictly greater than every latch it already holds, so no cycle
/// of waiters can form.  The ranks follow the engine's call nesting:
///
///   kSessionPool      session-pool scheduling state (coordinator/worker
///                     hand-off in deterministic mode)
///   kTxnManager       transaction-manager state (group-commit queue + txn
///                     table; a group flush applies mutations under it, so
///                     it sits above the scheduler and below the database)
///   kTxnLock          the R1 S/X lock's holder/waiter latch (owned by
///                     the TxnManager; waiters park on a condition
///                     variable, releasing the latch, so blocking on the
///                     *transaction lock* never holds a latch — only the
///                     grant check itself is ranked)
///   kDatabase         the engine's coarse database latch — shared for
///                     procedure accesses, exclusive for update transactions
///   kStrategySlot     per-procedure strategy cache slot stripes (serializes
///                     two sessions refreshing the same procedure's cache)
///   kRete             Rete network token-propagation latch (whole network;
///                     taken for the duration of one submitted token)
///   kReteMemory       per α/β memory latch (store refresh while a token is
///                     being applied to that memory)
///   kILock            the i-lock table's latch (one per ILockTable)
///   kCacheBudget      cache-budget accounting shards (byte totals + LRU
///                     clock; eviction only flips per-entry atomic flags,
///                     so no lower-ranked latch is ever taken under it)
///   kWal              write-ahead-log append/truncate latch (an
///                     invalidation is appended under the exclusive
///                     kDatabase latch its apply holds)
///   kPageTable        SimulatedDisk page-directory latch (page allocation
///                     vs concurrent page lookups)
///   kBufferCache      buffer-cache frame/LRU latch
///
/// Gaps between values leave room for future subsystems.
///
/// The order is enforced three ways (DESIGN.md §9 "Static concurrency
/// safety" documents the conventions):
///  - at run time, internal::NoteAcquire aborts on any out-of-order
///    acquisition a test actually executes;
///  - at compile time under Clang, the CAPABILITY/GUARDED_BY annotations
///    below prove "which latch guards this field" per translation unit
///    (-Wthread-safety, `thread-safety` CMake preset);
///  - statically over the whole tree, the latch-rank pass of
///    tools/procsim_lint extracts every guard-construction site into a
///    latch-acquisition graph and checks each edge against this enum —
///    including paths no test executes.
enum class LatchRank : int {
  kSessionPool = 0,
  kTxnManager = 2,
  kTxnLock = 5,
  kDatabase = 10,
  kStrategySlot = 20,
  kRete = 30,
  kReteMemory = 35,
  kILock = 40,
  kCacheBudget = 45,
  kWal = 52,
  kPageTable = 55,
  kBufferCache = 60,
};

/// \brief Instrumentation cells for the latch layer.
///
/// The latch primitives live in `util`, the bottom layer of the module DAG
/// (tools/procsim_lint/layers.txt), so they cannot reach up into `obs` to
/// register metrics.  Instead the obs layer installs raw counter cells at
/// static-init time (see the binder in obs/metrics.cc), and the latch code
/// bumps them through this indirection.  Until the cells are installed —
/// or in a binary that never links obs — acquisitions simply go uncounted.
struct LatchMetricCells {
  std::atomic<std::uint64_t>* acquisitions = nullptr;
  std::atomic<std::uint64_t>* contended = nullptr;
  std::atomic<std::uint64_t>* rank_near_miss = nullptr;
};

/// Installs the cells (copied; pointed-to atomics must outlive all latch
/// use).  Call once at static-init; not thread-safe against concurrent
/// latch traffic.
void InstallLatchMetricCells(const LatchMetricCells& cells);

/// Called when a thread attempts an out-of-order acquisition.  The default
/// handler aborts (a rank inversion is a structural deadlock hazard, not a
/// recoverable condition); tests install a recording handler to assert the
/// checker detects planted inversions.
using LatchViolationHandler = void (*)(const std::string& description);

/// Installs `handler` (nullptr restores the aborting default) and returns
/// the previously installed handler.
LatchViolationHandler SetLatchViolationHandlerForTesting(
    LatchViolationHandler handler);

namespace internal {

/// Records an acquisition by the calling thread, checking rank order.  A
/// same-rank acquisition (two stripes of one LatchStripes set held by the
/// same thread) is reported distinctly from a downward inversion — it is
/// the double-stripe hold the striped structures promise never happens.
/// Also bumps the `concurrent.latch.acquisitions` metric.
void NoteAcquire(LatchRank rank, const char* name);

/// Non-aborting preflight for try_lock paths: returns true iff acquiring
/// `rank` now would respect the order.  On a would-be inversion it counts
/// the `concurrent.latch.rank_near_miss` metric and reports through the
/// testing handler (if installed) but never aborts — a failed try_lock
/// acquires nothing, so the hazard is latent, not live.
bool CheckWouldAcquire(LatchRank rank, const char* name);

/// Records a release by the calling thread (latches may be released in any
/// order; the most recent acquisition of `rank` is retired).
void NoteRelease(LatchRank rank);

/// Records that an acquisition found the latch held and had to wait —
/// the `concurrent.latch.contended` metric the engine's contention
/// observability rests on.
void NoteContended();

/// Number of latches the calling thread currently holds.
std::size_t HeldCount();

}  // namespace internal

/// \brief A mutex that participates in the rank checker.  Satisfies
/// *Lockable*, so std::lock_guard / std::unique_lock work as usual, but
/// prefer RankedLockGuard: it carries the thread-safety annotations that
/// libstdc++'s guards lack, and tools/latch_lint recognizes it.
class CAPABILITY("ranked mutex") RankedMutex {
 public:
  RankedMutex(LatchRank rank, const char* name) : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() ACQUIRE() {
    internal::NoteAcquire(rank_, name_);
    if (!mutex_.try_lock()) {
      internal::NoteContended();
      mutex_.lock();
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    // Preflight before the attempt: a rank-inverting try_lock that fails
    // must still be reported (as a near miss), or the hazard ships silent.
    internal::CheckWouldAcquire(rank_, name_);
    if (!mutex_.try_lock()) return false;
    internal::NoteAcquire(rank_, name_);
    return true;
  }
  void unlock() RELEASE() {
    mutex_.unlock();
    internal::NoteRelease(rank_);
  }

  LatchRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mutex_;
  LatchRank rank_;
  const char* name_;
};

/// \brief A reader-writer latch with rank checking.  Shared and exclusive
/// acquisitions occupy the same rank slot in the per-thread held stack.
class CAPABILITY("ranked shared mutex") RankedSharedMutex {
 public:
  RankedSharedMutex(LatchRank rank, const char* name)
      : rank_(rank), name_(name) {}
  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock() ACQUIRE() {
    internal::NoteAcquire(rank_, name_);
    if (!mutex_.try_lock()) {
      internal::NoteContended();
      mutex_.lock();
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    internal::CheckWouldAcquire(rank_, name_);
    if (!mutex_.try_lock()) return false;
    internal::NoteAcquire(rank_, name_);
    return true;
  }
  void unlock() RELEASE() {
    mutex_.unlock();
    internal::NoteRelease(rank_);
  }

  void lock_shared() ACQUIRE_SHARED() {
    internal::NoteAcquire(rank_, name_);
    if (!mutex_.try_lock_shared()) {
      internal::NoteContended();
      mutex_.lock_shared();
    }
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    internal::CheckWouldAcquire(rank_, name_);
    if (!mutex_.try_lock_shared()) return false;
    internal::NoteAcquire(rank_, name_);
    return true;
  }
  void unlock_shared() RELEASE_SHARED() {
    mutex_.unlock_shared();
    internal::NoteRelease(rank_);
  }

 private:
  std::shared_mutex mutex_;
  LatchRank rank_;
  const char* name_;
};

/// \brief RAII exclusive guard over a ranked latch, visible to the
/// thread-safety analysis (SCOPED_CAPABILITY) and to tools/latch_lint.
/// Accepts either mutex flavor; the RankedSharedMutex overload takes the
/// latch exclusively (the engine's writer path).
class SCOPED_CAPABILITY RankedLockGuard {
 public:
  explicit RankedLockGuard(RankedMutex& mutex) ACQUIRE(mutex)
      : mutex_(&mutex) {
    mutex_->lock();
  }
  explicit RankedLockGuard(RankedSharedMutex& mutex) ACQUIRE(mutex)
      : shared_mutex_(&mutex) {
    shared_mutex_->lock();
  }
  ~RankedLockGuard() RELEASE() {
    if (mutex_ != nullptr) {
      mutex_->unlock();
    } else {
      shared_mutex_->unlock();
    }
  }

  RankedLockGuard(const RankedLockGuard&) = delete;
  RankedLockGuard& operator=(const RankedLockGuard&) = delete;

 private:
  RankedMutex* mutex_ = nullptr;
  RankedSharedMutex* shared_mutex_ = nullptr;
};

/// RAII shared (reader) guard over a RankedSharedMutex.
class SCOPED_CAPABILITY RankedSharedLockGuard {
 public:
  explicit RankedSharedLockGuard(RankedSharedMutex& mutex)
      ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~RankedSharedLockGuard() RELEASE() { mutex_.unlock_shared(); }

  RankedSharedLockGuard(const RankedSharedLockGuard&) = delete;
  RankedSharedLockGuard& operator=(const RankedSharedLockGuard&) = delete;

 private:
  RankedSharedMutex& mutex_;
};

/// \brief An annotated unique-lock: like RankedLockGuard but exposing
/// lock()/unlock(), so it satisfies *BasicLockable* and can park on a
/// std::condition_variable_any (the session pool's turn hand-off).  The
/// caller must leave it locked at destruction, as a condition wait does.
class SCOPED_CAPABILITY RankedUniqueLock {
 public:
  explicit RankedUniqueLock(RankedMutex& mutex) ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~RankedUniqueLock() RELEASE() { mutex_.unlock(); }

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }

  RankedUniqueLock(const RankedUniqueLock&) = delete;
  RankedUniqueLock& operator=(const RankedUniqueLock&) = delete;

 private:
  RankedMutex& mutex_;
};

/// \brief A fixed set of same-rank stripe latches.  Callers hash to one
/// stripe per operation and never hold two stripes at once (whole-structure
/// sweeps lock stripes one at a time) — a claim internal::NoteAcquire now
/// enforces: same-rank re-entry by one thread is reported as a violation.
class LatchStripes {
 public:
  LatchStripes(LatchRank rank, const char* name, std::size_t stripes) {
    PROCSIM_CHECK_GT(stripes, 0u) << "LatchStripes '" << name
                                  << "' needs at least one stripe";
    stripes_.reserve(stripes);
    for (std::size_t i = 0; i < stripes; ++i) {
      stripes_.push_back(std::make_unique<RankedMutex>(rank, name));
    }
  }

  std::size_t size() const { return stripes_.size(); }
  RankedMutex& For(std::size_t hash) { return *stripes_[hash % stripes_.size()]; }
  RankedMutex& At(std::size_t index) {
    PROCSIM_CHECK_LT(index, stripes_.size())
        << "stripe index out of range for '" << stripes_[0]->name() << "'";
    return *stripes_[index];
  }

 private:
  std::vector<std::unique_ptr<RankedMutex>> stripes_;
};

}  // namespace procsim::util

#endif  // PROCSIM_UTIL_LATCH_H_
