#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "spans.h"
#include "txn/engine.h"

namespace perfbench {

/// Span names of one strategy's calls in the replay, matched by
/// Strategy::name().
struct StrategySpans {
  const char* strategy;
  const char* access;
  const char* notify;
};
extern const StrategySpans kStrategySpans[6];

/// \brief Replays ops single-threaded through the public functions of the
/// layers below TxnEngine, in TxnEngine::ApplyCommitted's order: a mutation
/// is sim::ApplyMutationOp, one ivm::ChangeBatch, every strategy's OnBatch,
/// then every strategy's OnTransactionEnd; an access is every strategy's
/// Access, each followed by sim::CanonicalResultBytes.  Each call is a span.
class LayerReplay {
 public:
  /// Builds the database and prepares the six strategies (spans sim.build
  /// and proc.prepare).  False, with the reason on stderr, on failure.
  bool Build(const procsim::txn::TxnEngine::Options& options, SpanLog* spans);

  void Step(const procsim::sim::WorkloadOp& op, uint64_t index,
            SpanLog* spans, Checks* checks);

  /// Simulated cost charged since Build.
  MeterReading meter() const;
  /// The oracle digest of the replayed database (txn::OracleStateDigest).
  std::string Digest() const;

  uint64_t accesses() const { return accesses_; }
  uint64_t commits() const { return commits_; }
  /// C1 screens charged by AlwaysRecompute's accesses.
  uint64_t ar_screens() const { return ar_screens_; }
  /// CacheInvalidate accesses answered by reloading an evicted entry.
  uint64_t ci_reloads() const;

 private:
  procsim::txn::TxnEngine::Options options_;
  std::unique_ptr<procsim::sim::Database> db_;
  procsim::sim::StrategySet strategies_;
  std::vector<const StrategySpans*> names_;  ///< parallel to strategies_.all
  MeterReading meter_start_;
  uint64_t ci_reloads_start_ = 0;
  uint64_t accesses_ = 0;
  uint64_t commits_ = 0;
  uint64_t ar_screens_ = 0;
};

/// \brief Splits the process-wide metric counters between two interleaved
/// sides (the traced engine and the layer replay): Charge() attributes every
/// increment since the previous Charge() to the given side.
class CounterSplit {
 public:
  CounterSplit();

  enum Side { kEngine = 0, kReplay = 1, kNone = 2 };
  void Charge(Side side);

  const std::vector<std::string>& names() const { return names_; }
  /// Increments of counter `name` charged to `side` (0 if unknown).
  uint64_t Count(Side side, const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<const procsim::obs::Counter*> cells_;
  std::vector<uint64_t> last_;
  std::vector<uint64_t> sides_[2];
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
