#ifndef PROCSIM_PROC_ENGINE_CONFIG_H_
#define PROCSIM_PROC_ENGINE_CONFIG_H_

#include <cstddef>

namespace procsim::proc {

/// \brief The transactional engine's memory-budget and commit
/// configuration.
///
/// It is part of txn::TxnEngine::Options (which audit::CrossCheckOptions
/// embeds, so the differential oracle runs under the same settings).  The
/// engine reads it when it builds its strategy set, its write-ahead log and
/// its transaction manager; no strategy sees it.  Every partitioned
/// structure (cache-budget shards, the engine's slot stripes) uses the
/// constant util::kDefaultShardCount.
struct EngineConfig {
  /// Global cache budget in bytes, split evenly across the budget's shards;
  /// cached procedure results beyond the budget are evicted LRU-first and
  /// recomputed on next access (AR-like degradation).  0 = unlimited:
  /// nothing is ever evicted, but byte accounting still runs so memory
  /// footprints stay observable.
  std::size_t cache_budget_bytes = 0;

  /// Transactions batched per group-commit flush (txn::TxnManager).  1 =
  /// commit immediately: every access reads its own session's writes, the
  /// historical behavior all goldens assume.  Larger groups defer the
  /// database apply to the flush, trading commit latency for fewer log
  /// forces — the fig21 sweep.
  std::size_t group_commit_size = 1;

  /// Simulated cost of one write-ahead-log force (a sequential log write at
  /// a group-commit boundary), charged to the engine's cost meter.  0 keeps
  /// the paper's C_inval ≈ 0 operating point — log appends are amortized to
  /// nothing — so existing figures are untouched; fig21 sets it to C2 to
  /// expose the group-commit throughput/latency trade.
  double wal_force_cost_ms = 0.0;
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_ENGINE_CONFIG_H_
