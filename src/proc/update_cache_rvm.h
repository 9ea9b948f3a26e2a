#ifndef PROCSIM_PROC_UPDATE_CACHE_RVM_H_
#define PROCSIM_PROC_UPDATE_CACHE_RVM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "proc/cache_budget.h"
#include "proc/strategy.h"
#include "rete/network.h"

namespace procsim::proc {

/// \brief Update Cache with shared Rete view maintenance (§2, §4.4):
/// procedure values are the β/α memory nodes of one Rete network built over
/// the whole procedure population, with structurally identical
/// subexpressions (e.g. a P2 procedure's base selection that equals a P1
/// procedure's query) compiled once and shared.
class UpdateCacheRvmStrategy : public Strategy {
 public:
  UpdateCacheRvmStrategy(
      rel::Catalog* catalog, rel::Executor* executor, CostMeter* meter,
      std::size_t result_tuple_bytes, CacheBudget* budget,
      rete::ReteNetwork::JoinShape shape =
          rete::ReteNetwork::JoinShape::kRightDeep);

  std::string name() const override { return "UpdateCache/RVM"; }

  Status Prepare() override;
  Result<std::vector<rel::Tuple>> Access(ProcId id) override;

  /// Feeds the ordered change run to the network (ReteNetwork::OnChanges),
  /// one token at a time under one root-latch acquisition.
  void OnBatch(const std::string& relation,
               const ivm::ChangeBatch& changes) override;

  /// Audit boundary: base relations and Rete memories must agree here (they
  /// legitimately diverge mid-transaction while tokens are in flight).
  Status OnTransactionEnd() override;

  const rete::ReteNetwork::Stats& network_stats() const;

  /// The maintenance network itself (for audit::ValidateEngine).
  /// Valid after Prepare().
  const rete::ReteNetwork* network() const { return network_.get(); }

  /// Graphviz rendering of the maintenance network (paper figures 1/3/16).
  std::string NetworkDot() const;

  /// Current maintained value without charging (for tests).
  std::vector<rel::Tuple> SnapshotForTesting(ProcId id) const;

 private:
  rete::ReteNetwork::JoinShape shape_;
  std::unique_ptr<rete::ReteNetwork> network_;
  std::vector<rete::MemoryNode*> result_memories_;
  /// Budgeted result memories in registration (deterministic) order.  Only
  /// *terminal* memories are budgeted: evicting a shared interior memory
  /// would starve downstream joins.  Shared terminal memories (several
  /// procedures mapping to one node) register once.
  std::vector<std::pair<rete::MemoryNode*, CacheBudget::EntryId>>
      budget_entries_;
  std::unordered_map<const rete::MemoryNode*, CacheBudget::EntryId>
      budget_index_;
  Status deferred_error_;
};

}  // namespace procsim::proc

#endif  // PROCSIM_PROC_UPDATE_CACHE_RVM_H_
