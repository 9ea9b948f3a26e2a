#ifndef PROCSIM_CONCURRENT_SESSION_POOL_H_
#define PROCSIM_CONCURRENT_SESSION_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/workload.h"
#include "txn/engine.h"
#include "util/status.h"

namespace procsim::concurrent {

/// \brief N client sessions driving one shared txn::TxnEngine, each replaying
/// a seeded per-session workload stream of accesses and update transactions.
///
/// Every op runs as its own engine transaction: Begin, then Access (an R1
/// shared lock; all six strategies answer and must agree byte-for-byte) or
/// Queue (an R1 exclusive lock), then Commit — or Abort if a step fails.
/// Different procedures are served in parallel under the engine's shared
/// database latch; update transactions apply at their group flush under
/// the exclusive one (DESIGN.md §7).
///
/// Two execution modes:
///
///  - **Deterministic** (`deterministic = true`): worker threads execute
///    real ops on real threads, but a seeded coordinator hands out turns
///    one at a time — a barrier-stepped round-robin whose schedule is a
///    pure function of the seed.  The coordinator records the merged op
///    order and the canonical result bytes of every access; replaying the
///    merged stream through the single-threaded differential oracle
///    (audit::RunOpStream) must produce byte-identical digests.  This is
///    the equivalence proof between the concurrent engine and the paper's
///    single-user semantics.
///  - **Free-running** (`deterministic = false`): sessions run full speed
///    with no coordination beyond the engine's locks and latches.
///    Interleaving is whatever the scheduler gives; correctness is checked
///    per access (all strategies agree) and at quiesce.  This mode is what
///    the TSan-gated stress tests exercise.
///
/// The quiesce check, after every session has joined, is
/// TxnEngine::CompareAllAgainstOracle (which flushes the pending commit
/// group first), the WAL's consistency check and the audit structure
/// validators.
class SessionPool {
 public:
  struct Options {
    /// The shared engine; `engine.mix` is also each session's per-op mix.
    txn::TxnEngine::Options engine;
    /// Number of worker sessions.
    std::size_t sessions = 4;
    /// Ops each session executes.
    std::size_t ops_per_session = 64;
    bool deterministic = false;
  };

  /// What a completed run observed.
  struct RunResult {
    /// Ops in executed order.  Free-running mode: per-session streams
    /// concatenated (the true interleaving is not recorded).
    /// Deterministic mode: the merged schedule, suitable for replay
    /// through audit::RunOpStream.
    std::vector<sim::WorkloadOp> executed;
    /// Canonical result bytes of each access, in `executed` order
    /// (deterministic mode only).
    std::vector<std::string> access_digests;
    std::size_t accesses = 0;
    std::size_t mutations = 0;
    /// Metered cost of the whole run (all sessions, all strategies).
    double total_cost_ms = 0;
    /// Cache-budget state at quiesce: bytes held and evictions performed.
    std::size_t budget_accounted_bytes = 0;
    uint64_t budget_evictions = 0;
  };

  /// Builds the engine, runs all sessions to completion, joins, and
  /// validates at quiesce.  Per-session streams are derived from
  /// options.engine.seed, so a run is reproducible given its options.
  static Result<RunResult> Run(const Options& options);
};

}  // namespace procsim::concurrent

#endif  // PROCSIM_CONCURRENT_SESSION_POOL_H_
