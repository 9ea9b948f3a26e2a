#include "rete/node.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::rete {
namespace {

obs::Counter* const g_tconst_tokens =
    obs::GlobalMetrics().RegisterCounter("rete.tconst.tokens");
obs::Counter* const g_tconst_passed =
    obs::GlobalMetrics().RegisterCounter("rete.tconst.passed");
obs::Counter* const g_memory_inserts =
    obs::GlobalMetrics().RegisterCounter("rete.memory.inserts");
obs::Counter* const g_memory_removes =
    obs::GlobalMetrics().RegisterCounter("rete.memory.removes");
obs::Counter* const g_and_probes =
    obs::GlobalMetrics().RegisterCounter("rete.and.probes");
obs::Counter* const g_and_derived =
    obs::GlobalMetrics().RegisterCounter("rete.and.derived_tokens");
obs::Histogram* const g_memory_size = obs::GlobalMetrics().RegisterHistogram(
    "rete.memory.size_tuples", {1, 4, 16, 64, 256, 1024, 4096, 16384});

}  // namespace

using rel::Tuple;

TConstNode::TConstNode(std::size_t key_column, int64_t lo, int64_t hi,
                       rel::Conjunction residual, CostMeter* meter)
    : key_column_(key_column),
      lo_(lo),
      hi_(hi),
      residual_(std::move(residual)),
      meter_(meter) {
  PROCSIM_CHECK(meter != nullptr);
}

Status TConstNode::Activate(const Token& token) {
  // The interval itself was already checked by the root's discrimination
  // index; re-verify plus residual terms, charging C1 per test performed
  // (at least one — the paper's per-broken-lock screen).
  std::size_t screens = 1;
  g_tconst_tokens->Add();
  const int64_t key = token.tuple.value(key_column_).AsInt64();
  if (key < lo_ || key > hi_) {
    meter_->ChargeScreen(screens);
    return Status::OK();
  }
  const bool matched = residual_.Matches(token.tuple, &screens);
  meter_->ChargeScreen(std::max<std::size_t>(1, screens));
  if (!matched) return Status::OK();
  g_tconst_passed->Add();
  return Propagate(token);
}

std::string TConstNode::Describe() const {
  std::ostringstream out;
  out << "t-const($" << key_column_ << " in [" << lo_ << "," << hi_ << "]";
  if (!residual_.empty()) out << " and " << residual_.ToString();
  out << ")";
  return out.str();
}

MemoryNode::MemoryNode(storage::SimulatedDisk* disk, std::size_t pad_to_bytes,
                       bool is_beta)
    : store_(disk, pad_to_bytes), is_beta_(is_beta) {}

Result<std::vector<Tuple>> MemoryNode::ReadAll() const {
  util::RankedLockGuard guard(latch_);
  return store_.ReadAll();
}

Result<std::vector<Tuple>> MemoryNode::ProbeEqual(std::size_t column,
                                                  int64_t key) const {
  util::RankedLockGuard guard(latch_);
  std::vector<Tuple> matches;
  PROCSIM_RETURN_IF_ERROR(store_.ProbeEqual(column, key, [&](Tuple&& match) {
    matches.push_back(std::move(match));
    return Status::OK();
  }));
  return matches;
}

Status MemoryNode::ResetContents(const std::vector<Tuple>& tuples) {
  util::RankedLockGuard guard(latch_);
  return store_.Rebuild(tuples);
}

Status MemoryNode::Activate(const Token& token) {
  // An evicted memory keeps its (now stale) pages until the owner's reload
  // rebuilds it, but maintains nothing: drop the token.  Only terminal
  // memories can be evicted, so nothing downstream misses it; the owner
  // recomputes from base tables on the next access.
  if (evicted()) return Status::OK();
  {
    // Latch only the store mutation; drop before propagating so no two
    // memory latches are ever held together (see class comment).
    util::RankedLockGuard guard(latch_);
    if (token.is_insert()) {
      PROCSIM_RETURN_IF_ERROR(store_.Insert(token.tuple));
      g_memory_inserts->Add();
    } else {
      PROCSIM_RETURN_IF_ERROR(store_.Remove(token.tuple));
      g_memory_removes->Add();
    }
    g_memory_size->Observe(static_cast<double>(store_.size()));
  }
  return Propagate(token);
}

std::string MemoryNode::Describe() const {
  return is_beta_ ? "beta-memory" : "alpha-memory";
}

AndNode::AndNode(MemoryNode* left, MemoryNode* right, std::size_t left_column,
                 std::size_t right_column, CostMeter* meter)
    : left_(left),
      right_(right),
      left_column_(left_column),
      right_column_(right_column),
      meter_(meter),
      left_input_(this, true),
      right_input_(this, false) {
  PROCSIM_CHECK(left != nullptr);
  PROCSIM_CHECK(right != nullptr);
  PROCSIM_CHECK(meter != nullptr);
}

Status AndNode::Activate(const Token&) {
  return Status::Internal(
      "AndNode must be activated through LeftInput()/RightInput()");
}

Status AndNode::ActivateFromSide(bool from_left, const Token& token) {
  // The opposite memory's probe index yields exactly the joining tuples.
  g_and_probes->Add();
  MemoryNode* opposite = from_left ? right_ : left_;
  const std::size_t own_column = from_left ? left_column_ : right_column_;
  const std::size_t opp_column = from_left ? right_column_ : left_column_;
  Result<std::vector<Tuple>> matches = opposite->ProbeEqual(
      opp_column, token.tuple.value(own_column).AsInt64());
  if (!matches.ok()) return matches.status();
  for (const Tuple& match : matches.ValueOrDie()) {
    const Tuple& left_tuple = from_left ? token.tuple : match;
    const Tuple& right_tuple = from_left ? match : token.tuple;
    // Verifying the qualification costs one screen per candidate pair.
    meter_->ChargeScreen();
    g_and_derived->Add();
    PROCSIM_RETURN_IF_ERROR(
        Propagate(token.Derive(Tuple::Concat(left_tuple, right_tuple))));
  }
  return Status::OK();
}

std::string AndNode::Describe() const {
  std::ostringstream out;
  out << "and(left.$" << left_column_ << " = right.$" << right_column_ << ")";
  return out.str();
}

}  // namespace procsim::rete
