#ifndef PROCSIM_RETE_NODE_H_
#define PROCSIM_RETE_NODE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/latch.h"
#include "ivm/tuple_store.h"
#include "relational/predicate.h"
#include "rete/token.h"
#include "util/cost_meter.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace procsim::rete {

/// \brief Base class of all Rete network nodes (§2 of the paper: root,
/// t-const, α-memory, and-node, β-memory).
class ReteNode {
 public:
  virtual ~ReteNode() = default;

  /// Processes one token and propagates derived tokens to successors.
  virtual Status Activate(const Token& token) = 0;

  void AddSuccessor(ReteNode* node) { successors_.push_back(node); }
  const std::vector<ReteNode*>& successors() const { return successors_; }

  virtual std::string Describe() const = 0;

 protected:
  Status Propagate(const Token& token) {
    for (ReteNode* node : successors_) {
      PROCSIM_RETURN_IF_ERROR(node->Activate(token));
    }
    return Status::OK();
  }

 private:
  std::vector<ReteNode*> successors_;
};

/// \brief A t-const chain for one base selection: an indexed-attribute range
/// [lo, hi] plus residual `attribute op constant` terms.
///
/// The root discriminates tokens by relation and key interval using an
/// in-memory lock-table-style structure (not charged, like the paper's rule
/// indexing); a token that reaches this node is charged C1 screening for the
/// residual verification — this is the paper's per-broken-lock screen cost.
class TConstNode : public ReteNode {
 public:
  TConstNode(std::size_t key_column, int64_t lo, int64_t hi,
             rel::Conjunction residual, CostMeter* meter);

  Status Activate(const Token& token) override;

  std::string Describe() const override;

  std::size_t key_column() const { return key_column_; }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }
  const rel::Conjunction& residual() const { return residual_; }

 private:
  std::size_t key_column_;
  int64_t lo_;
  int64_t hi_;
  rel::Conjunction residual_;
  CostMeter* meter_;
};

/// \brief An α- or β-memory node: holds the materialized output of its
/// predecessor on disk pages (inserting/removing charges the refresh I/O)
/// and passes tokens through to successors.
///
/// Each memory carries its own kReteMemory-rank latch around store
/// mutation, released before tokens propagate downstream — so the network
/// never holds two memory latches at once (downstream memories re-latch at
/// the same rank only after the upstream latch is dropped).
class MemoryNode : public ReteNode {
 public:
  /// \param disk          page store
  /// \param pad_to_bytes  stored tuple width (paper's S)
  /// \param is_beta       β (join output) vs α (selection output); label only
  MemoryNode(storage::SimulatedDisk* disk, std::size_t pad_to_bytes,
             bool is_beta);

  Status Activate(const Token& token) override;

  std::string Describe() const override;

  bool is_beta() const { return is_beta_; }

  /// Unguarded store access for network construction and quiescent
  /// validation (analysis disabled by design: build precedes concurrency,
  /// and validators run with no token in flight — see network.h).
  const ivm::TupleStore& store() const NO_THREAD_SAFETY_ANALYSIS {
    return store_;
  }
  ivm::TupleStore* mutable_store() NO_THREAD_SAFETY_ANALYSIS {
    return &store_;
  }

  /// Reads the memory contents (one I/O per page) under the memory latch —
  /// answers procedure accesses.
  Result<std::vector<rel::Tuple>> ReadAll() const;

  /// Latched equality probe on `column` — the and-node's join lookup while
  /// a token from the opposite side is in flight.  The matches are collected
  /// under the latch and returned, so the caller propagates only after the
  /// latch is dropped (no two memory latches are ever held together).
  Result<std::vector<rel::Tuple>> ProbeEqual(std::size_t column,
                                             int64_t key) const;

  /// Attaches a cache-budget liveness flag (proc::CacheBudget::LiveFlag).
  /// Only terminal memories (no successors) may be bound: an evicted memory
  /// drops incoming tokens, which would starve downstream joins.  Bound at
  /// Prepare time, before any concurrency.
  void BindEvictionFlag(const std::atomic<bool>* live) {
    live_flag_.store(live, std::memory_order_release);
  }

  /// Whether the budget has evicted this memory's contents.  False when no
  /// flag is bound (unbudgeted networks).
  bool evicted() const {
    const std::atomic<bool>* live =
        live_flag_.load(std::memory_order_acquire);
    return live != nullptr && !live->load(std::memory_order_acquire);
  }

  /// Replaces the memory contents wholesale — the owning strategy's
  /// recompute-after-eviction path.  Runs under the memory latch; callers
  /// must be quiescent with respect to token flow into this memory.
  Status ResetContents(const std::vector<rel::Tuple>& tuples);

 private:
  mutable util::RankedMutex latch_{
      util::LatchRank::kReteMemory, "MemoryNode"};
  ivm::TupleStore store_ GUARDED_BY(latch_);
  const bool is_beta_;
  /// Double-atomic: the outer pointer is bound once at Prepare time; the
  /// inner bool is flipped by CacheBudget eviction on other threads.
  std::atomic<const std::atomic<bool>*> live_flag_{nullptr};
};

/// \brief A two-input equi-join node: `left.column = right.column`, the
/// procedures' equality qualification.
///
/// Tokens arrive via the LeftInput()/RightInput() adapter nodes, which are
/// wired as successors of the corresponding memory nodes.  On activation
/// from one side, the opposite memory's probe index on its join column
/// yields the joining tuples; each (token, tuple) pair produces a derived
/// token with the original tag, propagated to this node's successors (a
/// β-memory).
class AndNode : public ReteNode {
 public:
  AndNode(MemoryNode* left, MemoryNode* right, std::size_t left_column,
          std::size_t right_column, CostMeter* meter);

  /// AndNode is never activated directly; use the side adapters.
  Status Activate(const Token& token) override;
  std::string Describe() const override;

  ReteNode* LeftInput() { return &left_input_; }
  ReteNode* RightInput() { return &right_input_; }

  // Join structure, exposed for network validation.
  const MemoryNode* left() const { return left_; }
  const MemoryNode* right() const { return right_; }
  std::size_t left_column() const { return left_column_; }
  std::size_t right_column() const { return right_column_; }

 private:
  class SideAdapter : public ReteNode {
   public:
    SideAdapter(AndNode* parent, bool is_left)
        : parent_(parent), is_left_(is_left) {}
    Status Activate(const Token& token) override {
      return parent_->ActivateFromSide(is_left_, token);
    }
    std::string Describe() const override {
      return std::string(is_left_ ? "left" : "right") + "-input of " +
             parent_->Describe();
    }

   private:
    AndNode* parent_;
    bool is_left_;
  };

  Status ActivateFromSide(bool from_left, const Token& token);

  MemoryNode* left_;
  MemoryNode* right_;
  std::size_t left_column_;
  std::size_t right_column_;
  CostMeter* meter_;
  SideAdapter left_input_;
  SideAdapter right_input_;
};

}  // namespace procsim::rete

#endif  // PROCSIM_RETE_NODE_H_
