#include "rete/network.h"

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::rete {

using rel::Conjunction;
using rel::ProcedureQuery;
using rel::Tuple;

namespace {

obs::Counter* const g_tokens_submitted =
    obs::GlobalMetrics().RegisterCounter("rete.network.tokens_submitted");
// Root dispatch: changes entering the root, and (change, selection entry)
// admissions — an unconditional entry always admits, an interval entry when
// its interval holds the key.  Their ratio is how selective the root is.
obs::Counter* const g_rows_submitted =
    obs::GlobalMetrics().RegisterCounter("exec.batch.rows_submitted");
obs::Counter* const g_rows_selected =
    obs::GlobalMetrics().RegisterCounter("exec.batch.rows_selected");

/// Appends `base`'s tuples in heap-scan order.
Status ScanRelation(const rel::Relation& base, std::vector<Tuple>* out) {
  out->reserve(out->size() + base.tuple_count());
  return base.Scan([&](storage::RecordId, const Tuple& tuple) {
    out->push_back(tuple);
    return true;
  });
}

}  // namespace

ReteNetwork::ReteNetwork(rel::Catalog* catalog, CostMeter* meter,
                         std::size_t pad_to_bytes, JoinShape shape)
    : catalog_(catalog),
      meter_(meter),
      pad_to_bytes_(pad_to_bytes),
      shape_(shape) {
  PROCSIM_CHECK(catalog != nullptr);
  PROCSIM_CHECK(meter != nullptr);
}

Result<MemoryNode*> ReteNetwork::WireJoin(MemoryNode* left, MemoryNode* right,
                                          std::size_t left_column,
                                          std::size_t right_column) {
  auto beta = std::make_unique<MemoryNode>(catalog_->disk(), pad_to_bytes_,
                                           /*is_beta=*/true);
  left->mutable_store()->EnsureProbeIndex(left_column);
  right->mutable_store()->EnsureProbeIndex(right_column);

  // Populate from the current memory contents, left side in record order,
  // before registering anything: collect the joined rows, then insert them
  // as one batch.
  std::vector<Tuple> rows;
  Status populated = Status::OK();
  left->store().ForEach([&](const Tuple& left_tuple) {
    populated = right->store().ProbeEqual(
        right_column, left_tuple.value(left_column).AsInt64(),
        [&](Tuple&& right_tuple) {
          rows.push_back(Tuple::Concat(left_tuple, right_tuple));
          return Status::OK();
        });
    return populated.ok();
  });
  PROCSIM_RETURN_IF_ERROR(populated);
  PROCSIM_RETURN_IF_ERROR(beta->mutable_store()->InsertMany(rows));

  auto* and_node =
      MakeNode<AndNode>(left, right, left_column, right_column, meter_);
  MemoryNode* beta_memory = Adopt(std::move(beta));
  left->AddSuccessor(and_node->LeftInput());
  right->AddSuccessor(and_node->RightInput());
  and_node->AddSuccessor(beta_memory);
  ++stats_.and_nodes;
  ++stats_.beta_memories;
  return beta_memory;
}

Result<ReteNetwork::SelectionEntry*> ReteNetwork::GetOrCreateSelection(
    const std::string& relation, bool has_interval, std::size_t key_column,
    int64_t lo, int64_t hi, const Conjunction& residual,
    RelationSnapshots* snapshots) {
  if (!has_interval) {
    // Unconditional selections (inner relations) accept every key; the
    // t-const node still re-checks the interval, so it must be the full
    // domain rather than the caller's placeholder bounds.
    key_column = 0;
    lo = std::numeric_limits<int64_t>::min();
    hi = std::numeric_limits<int64_t>::max();
  }
  for (const auto& entry : selections_) {
    if (entry->lo == lo && entry->hi == hi &&
        entry->has_interval == has_interval &&
        entry->key_column == key_column && entry->relation == relation &&
        entry->node->residual() == residual) {
      ++stats_.shared_subexpression_hits;
      return entry.get();
    }
  }

  Result<rel::Relation*> rel_result = catalog_->GetRelation(relation);
  if (!rel_result.ok()) return rel_result.status();
  rel::Relation* base = rel_result.ValueOrDie();

  // Populate the α-memory from the relation's current contents (build-time;
  // callers disable metering for this static compilation phase) before
  // registering anything, inserting the selected rows as one batch: an
  // interval selection in key order through the B-tree, an unconditional
  // one in heap-scan order from this build's snapshot of the relation.
  auto memory = std::make_unique<MemoryNode>(catalog_->disk(), pad_to_bytes_,
                                             /*is_beta=*/false);
  std::vector<Tuple> rows;
  if (has_interval) {
    PROCSIM_RETURN_IF_ERROR(
        base->BTreeRange(lo, hi, [&](storage::RecordId, const Tuple& tuple) {
          if (residual.Matches(tuple)) rows.push_back(tuple);
          return true;
        }));
  } else {
    auto [snapshot, first_use] = snapshots->try_emplace(relation);
    if (first_use) {
      storage::MeteringGuard unmetered(catalog_->disk());
      Status scanned = ScanRelation(*base, &snapshot->second);
      if (!scanned.ok()) {
        snapshots->erase(snapshot);
        return scanned;
      }
      ++stats_.relation_scans;
    }
    for (const Tuple& tuple : snapshot->second) {
      if (residual.Matches(tuple)) rows.push_back(tuple);
    }
  }
  PROCSIM_RETURN_IF_ERROR(memory->mutable_store()->InsertMany(rows));

  auto* tconst = MakeNode<TConstNode>(key_column, lo, hi, residual, meter_);
  MemoryNode* alpha = Adopt(std::move(memory));
  tconst->AddSuccessor(alpha);
  ++stats_.tconst_nodes;
  ++stats_.alpha_memories;

  auto entry = std::make_unique<SelectionEntry>();
  entry->relation = relation;
  entry->has_interval = has_interval;
  entry->key_column = key_column;
  entry->lo = lo;
  entry->hi = hi;
  entry->node = tconst;
  entry->memory = alpha;
  SelectionEntry* raw = entry.get();
  selections_.push_back(std::move(entry));
  root_index_[relation].push_back(raw);
  return raw;
}

Result<std::size_t> ReteNetwork::SegmentOffset(const ProcedureQuery& query,
                                               std::size_t stage_index) const {
  Result<rel::Relation*> base = catalog_->GetRelation(query.base.relation);
  if (!base.ok()) return base.status();
  std::size_t offset = base.ValueOrDie()->schema().num_columns();
  for (std::size_t i = 0; i < stage_index; ++i) {
    Result<rel::Relation*> inner =
        catalog_->GetRelation(query.joins[i].relation);
    if (!inner.ok()) return inner.status();
    offset += inner.ValueOrDie()->schema().num_columns();
  }
  return offset;
}

Result<MemoryNode*> ReteNetwork::BuildJoinTail(const ProcedureQuery& query,
                                               std::size_t from,
                                               RelationSnapshots* snapshots) {
  PROCSIM_CHECK_LT(from, query.joins.size());
  const rel::JoinStage& stage = query.joins[from];

  std::vector<rel::JoinStage> stages(query.joins.begin() + from,
                                     query.joins.end());
  stages.front().probe_column = 0;
  for (const JoinTail& tail : tails_) {
    if (tail.stages == stages) {
      ++stats_.shared_subexpression_hits;
      return tail.memory;
    }
  }

  Result<SelectionEntry*> selection =
      GetOrCreateSelection(stage.relation, /*has_interval=*/false, 0, 0, 0,
                           stage.residual, snapshots);
  if (!selection.ok()) return selection.status();
  MemoryNode* head = selection.ValueOrDie()->memory;

  MemoryNode* result = nullptr;
  if (from + 1 == query.joins.size()) {
    result = head;
  } else {
    Result<MemoryNode*> tail = BuildJoinTail(query, from + 1, snapshots);
    if (!tail.ok()) return tail.status();

    const rel::JoinStage& next = query.joins[from + 1];
    Result<std::size_t> offset = SegmentOffset(query, from);
    if (!offset.ok()) return offset.status();
    Result<rel::Relation*> this_rel = catalog_->GetRelation(stage.relation);
    if (!this_rel.ok()) return this_rel.status();
    const std::size_t width = this_rel.ValueOrDie()->schema().num_columns();
    if (next.probe_column < offset.ValueOrDie() ||
        next.probe_column >= offset.ValueOrDie() + width) {
      return Status::InvalidArgument(
          "right-deep Rete construction requires join stage " +
          std::to_string(from + 1) +
          " to probe a column of the immediately preceding relation");
    }
    const std::size_t left_col = next.probe_column - offset.ValueOrDie();
    Result<rel::Relation*> next_rel = catalog_->GetRelation(next.relation);
    if (!next_rel.ok()) return next_rel.status();
    if (!next_rel.ValueOrDie()->hash_column().has_value()) {
      return Status::InvalidArgument(next.relation + " has no hash column");
    }
    const std::size_t right_col = *next_rel.ValueOrDie()->hash_column();

    Result<MemoryNode*> beta =
        WireJoin(head, tail.ValueOrDie(), left_col, right_col);
    if (!beta.ok()) return beta.status();
    result = beta.ValueOrDie();
  }

  tails_.push_back(JoinTail{std::move(stages), result});
  return result;
}

Result<std::vector<MemoryNode*>> ReteNetwork::AddProcedures(
    std::span<const ProcedureQuery> queries) {
  // Compilation mutates the node/dispatch structures, so it takes the same
  // latch OnChanges holds — a build racing a token would otherwise corrupt
  // the root index even though builds are normally pre-concurrency.
  util::RankedLockGuard latch_guard(submit_latch_);
  // Scoped to this call, so no snapshot outlives a mutation of its relation.
  RelationSnapshots snapshots;
  std::vector<MemoryNode*> memories;
  memories.reserve(queries.size());
  for (const ProcedureQuery& query : queries) {
    Result<MemoryNode*> memory = AddOne(query, &snapshots);
    if (!memory.ok()) return memory.status();
    memories.push_back(memory.ValueOrDie());
  }
  return memories;
}

Result<MemoryNode*> ReteNetwork::AddProcedure(const ProcedureQuery& query) {
  Result<std::vector<MemoryNode*>> memories =
      AddProcedures(std::span<const ProcedureQuery>(&query, 1));
  if (!memories.ok()) return memories.status();
  return memories.ValueOrDie().front();
}

Result<MemoryNode*> ReteNetwork::AddOne(const ProcedureQuery& query,
                                        RelationSnapshots* snapshots) {
  Result<rel::Relation*> base_rel = catalog_->GetRelation(query.base.relation);
  if (!base_rel.ok()) return base_rel.status();
  if (!base_rel.ValueOrDie()->btree_column().has_value()) {
    return Status::InvalidArgument(query.base.relation +
                                   " has no B-tree column");
  }
  const std::size_t key_column = *base_rel.ValueOrDie()->btree_column();

  Result<SelectionEntry*> selection = GetOrCreateSelection(
      query.base.relation, /*has_interval=*/true, key_column, query.base.lo,
      query.base.hi, query.base.residual, snapshots);
  if (!selection.ok()) return selection.status();
  MemoryNode* base_memory = selection.ValueOrDie()->memory;

  if (query.joins.empty()) {
    // A P1 procedure: the α-memory itself holds the maintained value.
    return base_memory;
  }
  if (shape_ == JoinShape::kLeftDeep) {
    return AddProcedureLeftDeep(query, base_memory, snapshots);
  }

  Result<MemoryNode*> tail = BuildJoinTail(query, 0, snapshots);
  if (!tail.ok()) return tail.status();

  const rel::JoinStage& first = query.joins[0];
  const std::size_t base_width =
      base_rel.ValueOrDie()->schema().num_columns();
  if (first.probe_column >= base_width) {
    return Status::InvalidArgument(
        "first join stage must probe a base-relation column");
  }
  Result<rel::Relation*> first_rel = catalog_->GetRelation(first.relation);
  if (!first_rel.ok()) return first_rel.status();
  if (!first_rel.ValueOrDie()->hash_column().has_value()) {
    return Status::InvalidArgument(first.relation + " has no hash column");
  }
  const std::size_t right_col = *first_rel.ValueOrDie()->hash_column();
  return WireJoin(base_memory, tail.ValueOrDie(), first.probe_column,
                  right_col);
}

Result<MemoryNode*> ReteNetwork::AddProcedureLeftDeep(
    const ProcedureQuery& query, MemoryNode* base_memory,
    RelationSnapshots* snapshots) {
  // ((base ⋈ R_0) ⋈ R_1) ⋈ ...: every stage's inner relation gets its own
  // α-memory (selection shared as usual), but the intermediate β-memories
  // are specific to this procedure's base, so the join work is never
  // shared and each base token cascades through every level.
  MemoryNode* current = base_memory;
  for (std::size_t i = 0; i < query.joins.size(); ++i) {
    const rel::JoinStage& stage = query.joins[i];
    Result<SelectionEntry*> selection =
        GetOrCreateSelection(stage.relation, /*has_interval=*/false, 0, 0, 0,
                             stage.residual, snapshots);
    if (!selection.ok()) return selection.status();
    Result<rel::Relation*> inner = catalog_->GetRelation(stage.relation);
    if (!inner.ok()) return inner.status();
    if (!inner.ValueOrDie()->hash_column().has_value()) {
      return Status::InvalidArgument(stage.relation + " has no hash column");
    }
    // stage.probe_column indexes the accumulated output, which is exactly
    // `current`'s tuple layout at this level.
    Result<MemoryNode*> next =
        WireJoin(current, selection.ValueOrDie()->memory, stage.probe_column,
                 *inner.ValueOrDie()->hash_column());
    if (!next.ok()) return next.status();
    current = next.ValueOrDie();
  }
  return current;
}

std::string ReteNetwork::ToDot() const {
  util::RankedLockGuard latch_guard(submit_latch_);
  std::ostringstream out;
  out << "digraph rete {\n  rankdir=TB;\n  node [fontsize=10];\n";
  out << "  root [shape=circle, label=\"root\"];\n";
  std::map<const ReteNode*, std::string> ids;
  auto id_of = [&](const ReteNode* node) -> const std::string& {
    auto it = ids.find(node);
    if (it == ids.end()) {
      std::string id = "n";
      id += std::to_string(ids.size());
      it = ids.emplace(node, std::move(id)).first;
    }
    return it->second;
  };
  // Declare nodes with type-specific shapes.  A memory's successor is an
  // and-node's input adapter, which is drawn as the and-node itself.
  std::map<const ReteNode*, std::pair<const ReteNode*, const char*>>
      and_inputs;  // adapter -> (and-node, side label)
  for (const auto& node : nodes_) {
    const auto* tconst = dynamic_cast<const TConstNode*>(node.get());
    const auto* memory = dynamic_cast<const MemoryNode*>(node.get());
    out << "  " << id_of(node.get()) << " [";
    if (tconst != nullptr) {
      out << "shape=box, label=\"" << tconst->Describe() << "\"";
    } else if (memory != nullptr) {
      out << "shape=ellipse, label=\""
          << (memory->is_beta() ? "beta" : "alpha") << "-memory\\n|"
          << memory->store().size() << "|\"";
    } else if (auto* and_node = dynamic_cast<AndNode*>(node.get())) {
      out << "shape=diamond, label=\"" << and_node->Describe() << "\"";
      and_inputs[and_node->LeftInput()] = {and_node, "L"};
      and_inputs[and_node->RightInput()] = {and_node, "R"};
    }
    out << "];\n";
  }
  // Root dispatch edges (per-relation discrimination).
  for (const auto& [relation, entries] : root_index_) {
    for (const SelectionEntry* entry : entries) {
      out << "  root -> " << id_of(entry->node) << " [label=\"" << relation
          << "\", fontsize=9];\n";
    }
  }
  for (const auto& node : nodes_) {
    for (const ReteNode* to : node->successors()) {
      const char* label = nullptr;
      if (auto input = and_inputs.find(to); input != and_inputs.end()) {
        std::tie(to, label) = input->second;
      }
      out << "  " << id_of(node.get()) << " -> " << id_of(to);
      if (label != nullptr) out << " [label=\"" << label << "\", fontsize=9]";
      out << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

Status ReteNetwork::OnChanges(const std::string& relation,
                              const ivm::ChangeBatch& changes) {
  util::RankedLockGuard guard(submit_latch_);
  g_tokens_submitted->Add(changes.size());
  g_rows_submitted->Add(changes.size());
  auto it = root_index_.find(relation);
  if (it == root_index_.end()) return Status::OK();
  // One token object for the whole stream: copy-assigning each change
  // reuses its tuple buffer.  Nodes copy what they keep, never the token.
  Token token;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    token.tag =
        changes.is_insert(i) ? Token::Tag::kInsert : Token::Tag::kDelete;
    token.tuple = changes.RowAt(i);
    PROCSIM_RETURN_IF_ERROR(Submit(it->second, token));
  }
  // No ValidateState() here: mid-transaction the base relations already hold
  // mutations whose tokens have not all been submitted yet, so memories
  // legitimately diverge until the caller reaches a transaction boundary
  // (UpdateCacheRvmStrategy::OnTransactionEnd audits there).
  return Status::OK();
}

Status ReteNetwork::Submit(const std::vector<SelectionEntry*>& entries,
                           const Token& token) {
  // A relation's interval entries all key on its B-tree column, so the key
  // is read once per column change rather than once per entry.
  std::size_t key_column = std::numeric_limits<std::size_t>::max();
  int64_t key = 0;
  for (SelectionEntry* entry : entries) {
    if (entry->has_interval) {
      if (entry->key_column != key_column) {
        key_column = entry->key_column;
        key = token.tuple.value(key_column).AsInt64();
      }
      if (key < entry->lo || key > entry->hi) continue;  // lock not broken
    }
    g_rows_selected->Add();
    PROCSIM_RETURN_IF_ERROR(entry->node->Activate(token));
  }
  return Status::OK();
}

namespace {

/// rel::CanonicalBag bytes of a memory's contents, read without copying
/// the tuples.
std::string CanonicalBytes(const ivm::TupleStore& store) {
  rel::CanonicalBag bag(store.size());
  store.ForEach([&](const Tuple& tuple) {
    bag.Add(tuple);
    return true;
  });
  return std::move(bag).Finish();
}

/// Names one tuple whose serialized image occurs more often on one side
/// than on the other.  Only builds failure messages: equality itself is
/// decided on CanonicalBytes, which ToString would round.
std::string FirstDifference(const std::vector<Tuple>& expected,
                            const std::vector<Tuple>& actual) {
  // image -> (expected count - actual count, a tuple with that image)
  std::map<std::string, std::pair<int64_t, const Tuple*>> balance;
  const auto image_of = [](const Tuple& tuple) {
    const std::vector<uint8_t> bytes = tuple.Serialize();
    return std::string(bytes.begin(), bytes.end());
  };
  for (const Tuple& tuple : expected) {
    auto& entry = balance[image_of(tuple)];
    ++entry.first;
    entry.second = &tuple;
  }
  for (const Tuple& tuple : actual) {
    auto& entry = balance[image_of(tuple)];
    --entry.first;
    entry.second = &tuple;
  }
  for (const auto& [image, entry] : balance) {
    if (entry.first > 0) return "missing " + entry.second->ToString();
  }
  for (const auto& [image, entry] : balance) {
    if (entry.first < 0) return "spurious " + entry.second->ToString();
  }
  return "no differing tuple";
}

}  // namespace

Status ReteNetwork::ValidateState() const {
  util::RankedLockGuard latch_guard(submit_latch_);
  storage::MeteringGuard guard(catalog_->disk());

  // α-memories: each must equal a from-scratch recomputation of its
  // selection against the base relation, read in one heap scan per relation.
  RelationSnapshots relations;
  for (const auto& entry : selections_) {
    // A budget-evicted memory is allowed (required, even) to diverge: it is
    // terminal, so no join reads it, and the owner recomputes on access.
    if (entry->memory->evicted()) continue;
    PROCSIM_RETURN_IF_ERROR(entry->memory->store().CheckConsistency());
    auto [tuples, first_use] = relations.try_emplace(entry->relation);
    if (first_use) {
      Result<rel::Relation*> base = catalog_->GetRelation(entry->relation);
      if (!base.ok()) return base.status();
      PROCSIM_RETURN_IF_ERROR(
          ScanRelation(*base.ValueOrDie(), &tuples->second));
    }
    std::vector<Tuple> expected;
    for (const Tuple& tuple : tuples->second) {
      if (entry->has_interval) {
        const int64_t key = tuple.value(entry->key_column).AsInt64();
        if (key < entry->lo || key > entry->hi) continue;
      }
      if (entry->node->residual().Matches(tuple)) expected.push_back(tuple);
    }
    const ivm::TupleStore& store = entry->memory->store();
    if (rel::CanonicalResultBytes(expected) != CanonicalBytes(store)) {
      return Status::Internal(
          "alpha-memory for " + entry->node->Describe() + " on " +
          entry->relation + " diverged from recomputation (|memory| = " +
          std::to_string(store.size()) + ", |recomputed| = " +
          std::to_string(expected.size()) + "): " +
          FirstDifference(expected, store.SnapshotForTesting()));
    }
  }

  // β-memories: each must equal the join of its and-node's input memories.
  // The inputs are validated before (α) or by this same loop (β feeding β;
  // nodes_ is in construction order, so inputs precede consumers), giving
  // from-scratch equality by induction.
  for (const auto& node : nodes_) {
    const auto* and_node = dynamic_cast<const AndNode*>(node.get());
    if (and_node == nullptr) continue;
    const MemoryNode* beta = nullptr;
    for (const ReteNode* successor : node->successors()) {
      beta = dynamic_cast<const MemoryNode*>(successor);
      if (beta != nullptr) break;
    }
    if (beta == nullptr) {
      return Status::Internal("and-node " + and_node->Describe() +
                              " has no beta-memory successor");
    }
    // Evicted β-memories (terminal only, like α above) skip validation.
    if (beta->evicted()) continue;
    PROCSIM_RETURN_IF_ERROR(beta->store().CheckConsistency());
    // Recompute the equi-join by hashing the right side on its column
    // (equal values hash equally).
    const std::size_t left_column = and_node->left_column();
    const std::size_t right_column = and_node->right_column();
    // ForEach's tuples live only for one call, so the hashed side is a copy.
    const std::vector<Tuple> right =
        and_node->right()->store().SnapshotForTesting();
    std::unordered_multimap<std::size_t, const Tuple*> right_by_key;
    for (const Tuple& tuple : right) {
      right_by_key.emplace(tuple.value(right_column).Hash(), &tuple);
    }
    std::vector<Tuple> expected;
    and_node->left()->store().ForEach([&](const Tuple& left_tuple) {
      const rel::Value& key = left_tuple.value(left_column);
      auto [begin, end] = right_by_key.equal_range(key.Hash());
      for (auto it = begin; it != end; ++it) {
        if (it->second->value(right_column) == key) {
          expected.push_back(Tuple::Concat(left_tuple, *it->second));
        }
      }
      return true;
    });
    const ivm::TupleStore& store = beta->store();
    if (rel::CanonicalResultBytes(expected) != CanonicalBytes(store)) {
      return Status::Internal(
          "beta-memory of " + and_node->Describe() +
          " diverged from the join of its inputs (|memory| = " +
          std::to_string(store.size()) + ", |join| = " +
          std::to_string(expected.size()) + "): " +
          FirstDifference(expected, store.SnapshotForTesting()));
    }
  }
  return Status::OK();
}

}  // namespace procsim::rete
