#ifndef PROCSIM_RETE_NETWORK_H_
#define PROCSIM_RETE_NETWORK_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/latch.h"
#include "ivm/delta.h"
#include "relational/catalog.h"
#include "relational/query.h"
#include "rete/node.h"
#include "rete/token.h"
#include "util/thread_annotations.h"

namespace procsim::rete {

/// \brief A Rete discrimination network maintaining the materialized values
/// of a set of procedure queries (§2 of the paper, figures 1, 3 and 16).
///
/// Networks are built statically: AddProcedures compiles queries into
/// right-deep chains of t-const / memory / and nodes, reusing structurally
/// identical subexpressions (same relation, selection interval and residual
/// predicate) already in the network — the sharing that distinguishes RVM
/// from AVM.  Memory nodes are populated from the catalog at build time
/// (metering should be disabled; the paper charges nothing for static
/// compilation): an interval selection from a B-tree range scan, an
/// unconditional one from a snapshot of its relation that the whole
/// AddProcedures call shares.
///
/// At run time, base-relation changes are submitted as ± tokens; the root
/// discriminates by relation and key interval using an in-memory index (the
/// analogue of rule indexing's lock table, not charged), and affected
/// t-const chains screen, join and refresh the memories, charging the
/// paper's C1/C2 costs.
/// Thread safety: OnChanges takes a network-level kRete latch before
/// walking the root index, so concurrent submissions serialize at the
/// root; each memory then re-latches at kReteMemory (> kRete) during its
/// own store mutation.  Network construction (AddProcedures) and the
/// whole-network sweeps (ValidateState, ToDot) take the same latch, so the
/// node/dispatch structures are GUARDED_BY(submit_latch_) throughout —
/// though builds should still complete before going concurrent, since
/// memory *population* runs un-metered and assumes quiescent relations.
class ReteNetwork {
 public:
  /// How multi-join procedures are compiled (§8: a statically optimized
  /// network is shaped by the expected update pattern).
  enum class JoinShape {
    /// Result = base ⋈ (R2 ⋈ (R3 ⋈ ...)): the join tail is precomputed in
    /// β-memories shared across procedures, so a base-relation token
    /// performs ONE probe.  Optimal when (as in the paper's models) updates
    /// hit the base relation — this is the figure-16 network.
    kRightDeep,
    /// Result = ((base ⋈ R2) ⋈ R3) ⋈ ...: each base token cascades through
    /// every stage, probing and refreshing an intermediate β-memory per
    /// level, and intermediate memories are base-specific so nothing is
    /// shared.  Kept as the pessimal comparison point (ablation AB7); it
    /// would be preferable only if the *inner* relations were update-hot.
    kLeftDeep,
  };
  struct Stats {
    std::size_t tconst_nodes = 0;
    std::size_t alpha_memories = 0;
    std::size_t and_nodes = 0;
    std::size_t beta_memories = 0;
    /// Number of AddProcedure subexpression lookups satisfied by an
    /// existing node chain.
    std::size_t shared_subexpression_hits = 0;
    /// Relation snapshots taken to populate unconditional selections: at
    /// most one per relation per AddProcedures call.
    std::size_t relation_scans = 0;
  };

  /// \param catalog       resolves relations for build-time population
  /// \param meter         cost sink for run-time maintenance
  /// \param pad_to_bytes  stored tuple width in memory nodes (paper's S)
  /// \param shape         join compilation shape (default: the paper's)
  ReteNetwork(rel::Catalog* catalog, CostMeter* meter,
              std::size_t pad_to_bytes,
              JoinShape shape = JoinShape::kRightDeep);

  ReteNetwork(const ReteNetwork&) = delete;
  ReteNetwork& operator=(const ReteNetwork&) = delete;

  /// Compiles `queries` into the network in order and returns, in the same
  /// order, the memory nodes that hold the procedures' maintained values.
  /// Every unconditional selection created by the call is populated from
  /// one un-metered snapshot of its relation, taken at the relation's first
  /// such selection and dropped when the call returns; α-memories insert in
  /// heap-scan (unconditional) or key (interval) order, so the pages match a
  /// one-query-at-a-time build.  Other population I/O is charged only if the
  /// disk's metering is enabled (callers normally disable it).  On an error
  /// the network keeps what was built before it; a memory whose population
  /// failed is never registered.
  Result<std::vector<MemoryNode*>> AddProcedures(
      std::span<const rel::ProcedureQuery> queries);

  /// AddProcedures for one query.
  Result<MemoryNode*> AddProcedure(const rel::ProcedureQuery& query);

  /// Feeds one transaction's ordered changes to `relation` into the root —
  /// the network's only change entry point.  Takes the root latch once, then
  /// dispatches the changes one token at a time in order; each token runs
  /// to completion through every affected chain before the next enters.
  Status OnChanges(const std::string& relation,
                   const ivm::ChangeBatch& changes);

  /// Quiescent-only (analysis disabled by design: stats are written while
  /// the network is built/validated under the latch; readers are benches
  /// and tests after build).
  const Stats& stats() const NO_THREAD_SAFETY_ANALYSIS { return stats_; }

  /// Deep semantic validation (un-metered): every α-memory must equal a
  /// from-scratch recomputation of its selection against the catalog, and
  /// every β-memory must equal the join of its and-node's current input
  /// memories — so by induction each memory equals a from-scratch
  /// recomputation of its subview.  Used by audit::ValidateEngine and (in
  /// PROCSIM_AUDIT builds) at every RVM transaction end.
  Status ValidateState() const;

  /// Renders the network as Graphviz DOT — the tool that drew the paper's
  /// figures 1, 3 and 16.  Edges follow the nodes' successor lists, an
  /// and-node input drawn into the and-node and labelled L or R.  Shared
  /// subexpressions appear as nodes with multiple outgoing edges; memory
  /// nodes show their current cardinality.
  std::string ToDot() const;

 private:
  /// A root dispatch entry: the t-const chain head for one selection.
  struct SelectionEntry {
    std::string relation;
    bool has_interval = false;    ///< interval vs unconditional dispatch
    std::size_t key_column = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    TConstNode* node = nullptr;
    MemoryNode* memory = nullptr;
  };

  /// Relation name -> its tuples in heap-scan order; lives for one
  /// AddProcedures call.
  using RelationSnapshots =
      std::unordered_map<std::string, std::vector<rel::Tuple>>;

  /// Walks one relation's root-index entries for one token: every
  /// unconditional entry, and every interval entry whose interval holds the
  /// key, activates its t-const chain in registration order.
  Status Submit(const std::vector<SelectionEntry*>& entries,
                const Token& token) REQUIRES(submit_latch_);

  /// Compiles one query (the body of AddProcedures).
  Result<MemoryNode*> AddOne(const rel::ProcedureQuery& query,
                             RelationSnapshots* snapshots)
      REQUIRES(submit_latch_);

  /// Returns (creating if needed) the selection chain for `relation` with
  /// the given interval/residual — an existing chain is shared when all of
  /// them are equal; the attached α-memory is populated from
  /// the relation's current contents (an unconditional one from
  /// `snapshots`, which it fills on the relation's first use) before the
  /// chain is registered, so a failed insert registers nothing.
  Result<SelectionEntry*> GetOrCreateSelection(
      const std::string& relation, bool has_interval, std::size_t key_column,
      int64_t lo, int64_t hi, const rel::Conjunction& residual,
      RelationSnapshots* snapshots) REQUIRES(submit_latch_);

  /// Builds the right-deep join tail covering `query.joins[from..]`, or
  /// shares a built one with equal stages; the returned memory holds
  /// concat(R_from, ..., R_last) filtered by each stage's residual and
  /// joined on each inner stage's condition.
  Result<MemoryNode*> BuildJoinTail(const rel::ProcedureQuery& query,
                                    std::size_t from,
                                    RelationSnapshots* snapshots)
      REQUIRES(submit_latch_);

  /// Left-deep compilation of a whole procedure (JoinShape::kLeftDeep).
  Result<MemoryNode*> AddProcedureLeftDeep(const rel::ProcedureQuery& query,
                                           MemoryNode* base_memory,
                                           RelationSnapshots* snapshots)
      REQUIRES(submit_latch_);

  /// Wires `left ⋈ right` into a fresh β-memory populated from the current
  /// memory contents, recording stats.  The β-memory is populated
  /// before anything is registered, so a failed insert leaves the network
  /// as it was (apart from probe indexes on `left` and `right`).
  Result<MemoryNode*> WireJoin(MemoryNode* left, MemoryNode* right,
                               std::size_t left_column,
                               std::size_t right_column)
      REQUIRES(submit_latch_);

  /// Column offset of join stage `i`'s relation within the accumulated
  /// output tuple.
  Result<std::size_t> SegmentOffset(const rel::ProcedureQuery& query,
                                    std::size_t stage_index) const;

  /// Takes ownership of `node`, appending it to nodes_ (construction order).
  template <typename NodeType>
  NodeType* Adopt(std::unique_ptr<NodeType> node) REQUIRES(submit_latch_) {
    NodeType* raw = node.get();
    nodes_.push_back(std::move(node));
    return raw;
  }

  template <typename NodeType, typename... Args>
  NodeType* MakeNode(Args&&... args) REQUIRES(submit_latch_) {
    return Adopt(std::make_unique<NodeType>(std::forward<Args>(args)...));
  }

  mutable util::RankedMutex submit_latch_{
      util::LatchRank::kRete, "ReteNetwork::submit"};
  rel::Catalog* const catalog_;
  CostMeter* const meter_;
  const std::size_t pad_to_bytes_;
  const JoinShape shape_;
  std::vector<std::unique_ptr<ReteNode>> nodes_ GUARDED_BY(submit_latch_);
  std::vector<std::unique_ptr<SelectionEntry>> selections_
      GUARDED_BY(submit_latch_);
  std::unordered_map<std::string, std::vector<SelectionEntry*>> root_index_
      GUARDED_BY(submit_latch_);
  /// A built right-deep join tail: the stages it covers, with the first
  /// stage's probe column zeroed (that probe is outside the tail), and the
  /// memory holding its value.
  struct JoinTail {
    std::vector<rel::JoinStage> stages;
    MemoryNode* memory = nullptr;
  };
  std::vector<JoinTail> tails_ GUARDED_BY(submit_latch_);
  Stats stats_ GUARDED_BY(submit_latch_);
};

}  // namespace procsim::rete

#endif  // PROCSIM_RETE_NETWORK_H_
