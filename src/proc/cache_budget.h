#ifndef PROCSIM_PROC_CACHE_BUDGET_H_
#define PROCSIM_PROC_CACHE_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/latch.h"
#include "util/shard.h"
#include "util/thread_annotations.h"

namespace procsim::proc {

/// \brief Byte accounting and LRU eviction over every cached procedure
/// result one engine holds.
///
/// Each strategy registers one entry per cached object (a CI tuple store,
/// an AVM/Adaptive maintained view, an unshared terminal Rete memory) and
/// reports its size through Admit (a rebuild: the entry becomes live and
/// recently used) or Resize (a maintenance patch: size changes, recency
/// does not).  When a shard's accounted bytes exceed its slice of the
/// budget, least-recently-touched live entries are evicted until the shard
/// fits again.
///
/// Eviction is accounting-only: it flips the entry's atomic live flag and
/// releases its bytes; it never calls back into the owning strategy and
/// never frees the stored pages itself.  The owner polls the flag (directly,
/// or through the pointer obtained from LiveFlag) on its next access and
/// recomputes from scratch, and that reload's TupleStore::Rebuild frees the
/// old pages — eviction is not invalidation, so a recompute always restores
/// the exact oracle value.  This keeps the latch story
/// trivial: eviction holds exactly one kCacheBudget shard latch and touches
/// nothing below it.
///
/// Registration (Register/LiveFlag binding) is Prepare-time,
/// single-threaded.  All other methods are safe under the engine's shared
/// database latch; the per-shard latch serializes accounting races.
class CacheBudget {
 public:
  using EntryId = std::size_t;

  /// \param budget_bytes  global budget; 0 = unlimited (never evicts)
  /// \param shards        shard count; every engine and simulator budget
  ///                      uses the default, only unit tests vary it
  explicit CacheBudget(std::size_t budget_bytes,
                       std::size_t shards = util::kDefaultShardCount);
  CacheBudget(const CacheBudget&) = delete;
  CacheBudget& operator=(const CacheBudget&) = delete;

  /// Registers a cached object and returns its id.  The entry starts live
  /// with zero bytes; the owner calls Admit once the initial value is
  /// materialized.  Prepare-time only (see class comment).
  EntryId Register(const std::string& label);

  /// Stable pointer to the entry's live flag, for latch-free polling on hot
  /// paths (strategy entries cache it; Rete memories bind it).
  const std::atomic<bool>* LiveFlag(EntryId id) const;

  /// Whether the entry currently holds budgeted bytes (false = evicted; the
  /// owner must recompute before serving).
  bool EntryIsLive(EntryId id) const {
    return LiveFlag(id)->load(std::memory_order_acquire);
  }

  /// Marks the entry recently used (a cache hit).  No-op on dead entries.
  void OnAccess(EntryId id);

  /// (Re)admits the entry at `bytes` — a rebuild or reload.  The entry
  /// becomes live and most recently used; the shard then evicts LRU-first
  /// until it fits its budget slice (possibly evicting this entry itself,
  /// if it alone exceeds the slice — oversized objects degrade to AR).
  void Admit(EntryId id, std::size_t bytes);

  /// Updates a live entry's size after in-place maintenance (a delta patch).
  /// Recency is deliberately untouched: maintenance is not a read, and must
  /// not shield a cold entry from eviction.  No-op on dead entries.
  void Resize(EntryId id, std::size_t bytes);

  bool unlimited() const { return budget_bytes_ == 0; }
  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t shard_count() const { return map_.size(); }

  /// Per-shard budget slice (floor of budget_bytes / shards; 0 when
  /// unlimited).
  std::size_t shard_budget_bytes() const { return shard_budget_; }

  /// Bytes currently accounted across all shards (latches shards one at a
  /// time; exact only at quiesce).
  std::size_t accounted_bytes() const;

  /// Bytes accounted in one shard (bounds-checked index).
  std::size_t shard_accounted_bytes(std::size_t shard) const;

  /// Total evictions performed since construction.
  std::uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  std::size_t entry_count() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  struct EntryInfo {
    std::string label;
    std::size_t bytes = 0;
    bool live = false;
    std::size_t shard = 0;
  };

  /// Calls `fn` for every registered entry, in id order within each shard;
  /// shards are visited in index order, one latch at a time.  Used by
  /// audit::ValidateCacheBudget; the callback must not reenter this budget.
  void ForEachEntry(const std::function<void(const EntryInfo&)>& fn) const;

  /// Corruption injection for the validator tests: skews one shard's byte
  /// total without touching its entries.
  void CorruptAccountingForTesting(std::size_t shard, std::size_t delta);

 private:
  struct Entry {
    std::string label;
    std::size_t bytes = 0;
    std::uint64_t last_touch = 0;
    /// Heap cell so the flag's address survives vector growth during
    /// registration — LiveFlag pointers stay valid for the budget's life.
    std::unique_ptr<std::atomic<bool>> live;
  };

  struct Shard {
    util::RankedMutex budget_latch{util::LatchRank::kCacheBudget,
                                   "CacheBudget::shard"};
    std::vector<Entry> entries GUARDED_BY(budget_latch);
    std::size_t bytes GUARDED_BY(budget_latch) = 0;
    std::uint64_t clock GUARDED_BY(budget_latch) = 0;
  };

  static std::vector<std::unique_ptr<Shard>> MakeShards(std::size_t count);

  /// Evicts least-recently-touched live entries (ties: lowest slot) until
  /// the shard fits its slice.  Holds only the shard latch.
  void EvictUntilFits(Shard& shard) REQUIRES(shard.budget_latch);

  Shard& ShardForId(EntryId id) const { return *shards_[map_.ForId(id)]; }

  const std::size_t budget_bytes_;
  const util::ShardMap map_;
  const std::size_t shard_budget_;
  const std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> next_id_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_CACHE_BUDGET_H_
