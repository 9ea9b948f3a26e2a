#include "relational/executor.h"

#include <algorithm>

#include "util/logging.h"

namespace procsim::rel {

Result<bool> Executor::MatchesBase(const ProcedureQuery& query,
                                   const Tuple& tuple) const {
  Result<Relation*> base_rel = catalog_->GetRelation(query.base.relation);
  if (!base_rel.ok()) return base_rel.status();
  const Relation* relation = base_rel.ValueOrDie();
  if (!relation->btree_column().has_value()) {
    return Status::InvalidArgument(query.base.relation +
                                   " has no B-tree column");
  }
  // Range test counts as one screen, residual terms as one each.
  meter_->ChargeScreen();
  const int64_t key = tuple.value(*relation->btree_column()).AsInt64();
  if (key < query.base.lo || key > query.base.hi) return false;
  std::size_t screens = 0;
  const bool matched = query.base.residual.Matches(tuple, &screens);
  meter_->ChargeScreen(screens);
  return matched;
}

Result<std::vector<Tuple>> Executor::RunJoins(const ProcedureQuery& query,
                                              std::vector<Tuple> current,
                                              ExecutionTrace* trace) const {
  if (trace != nullptr) trace->probed_keys.resize(query.joins.size());
  for (std::size_t stage_index = 0; stage_index < query.joins.size();
       ++stage_index) {
    const JoinStage& stage = query.joins[stage_index];
    Result<Relation*> inner_rel = catalog_->GetRelation(stage.relation);
    if (!inner_rel.ok()) return inner_rel.status();
    const Relation* inner = inner_rel.ValueOrDie();
    if (!inner->has_hash_index()) {
      return Status::InvalidArgument(stage.relation + " has no hash index");
    }
    if (!current.empty()) {
      PROCSIM_CHECK_LT(stage.probe_column, current.front().arity());
    }
    // Every candidate costs one screen per residual term evaluated, and at
    // least one: with no residual the join verification itself is a screen.
    std::vector<Tuple> next;
    std::size_t screens = 0;
    for (const Tuple& outer : current) {
      const int64_t probe_key = outer.value(stage.probe_column).AsInt64();
      if (trace != nullptr) {
        trace->probed_keys[stage_index].push_back(probe_key);
      }
      Result<std::vector<Tuple>> matches = inner->HashProbe(probe_key);
      if (!matches.ok()) return matches.status();
      for (const Tuple& inner_tuple : matches.ValueOrDie()) {
        std::size_t evaluated = 0;
        const bool kept = stage.residual.Matches(inner_tuple, &evaluated);
        screens += std::max<std::size_t>(1, evaluated);
        if (kept) next.push_back(Tuple::Concat(outer, inner_tuple));
      }
    }
    meter_->ChargeScreen(screens);
    current = std::move(next);
  }
  return current;
}

Result<std::vector<Tuple>> Executor::Execute(const ProcedureQuery& query,
                                             ExecutionTrace* trace) const {
  Result<Relation*> base_rel = catalog_->GetRelation(query.base.relation);
  if (!base_rel.ok()) return base_rel.status();
  const Relation* relation = base_rel.ValueOrDie();

  storage::AccessScope scope(catalog_->disk());
  // One screen per fetched tuple for the indexed-range predicate (the
  // analysis charges C1 per retrieved tuple), plus one per residual term
  // evaluated.
  std::vector<Tuple> selected;
  std::size_t fetched = 0;
  std::size_t screens = 0;
  Status scan = relation->BTreeRange(
      query.base.lo, query.base.hi,
      [&](storage::RecordId, const Tuple& tuple) {
        ++fetched;
        if (query.base.residual.Matches(tuple, &screens)) {
          selected.push_back(tuple);
        }
        return true;
      });
  PROCSIM_RETURN_IF_ERROR(scan);
  meter_->ChargeScreen(fetched);
  meter_->ChargeScreen(screens);
  return RunJoins(query, std::move(selected), trace);
}

Result<std::vector<Tuple>> Executor::JoinDeltas(
    const ProcedureQuery& query, const std::vector<Tuple>& base_tuples) const {
  return RunJoins(query, base_tuples);
}

}  // namespace procsim::rel
