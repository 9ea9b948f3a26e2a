#ifndef PROCSIM_PROC_ENGINE_CONFIG_H_
#define PROCSIM_PROC_ENGINE_CONFIG_H_

#include <cstddef>

#include "util/shard.h"

namespace procsim::proc {

/// \brief Engine-wide sharding and memory-budget configuration.
///
/// One value of this struct flows from the top (txn::TxnEngine::Options,
/// audit::CrossCheckOptions, sim::Simulator::Options) down into every
/// partitioned structure, so the i-lock stripes, the cache-budget shards and
/// the engine's slot stripes all agree on the partitioning instead of each
/// hardcoding its own constant.
struct EngineConfig {
  /// Shard count for every partitioned structure (util::ShardMap).
  std::size_t shards = util::kDefaultShardCount;

  /// Global cache budget in bytes, split evenly across shards; cached
  /// procedure results beyond the budget are evicted LRU-first and
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
