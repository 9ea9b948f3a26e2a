#ifndef PROCSIM_RELATIONAL_PREDICATE_H_
#define PROCSIM_RELATIONAL_PREDICATE_H_

#include <string>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"

namespace procsim::rel {

/// Comparison operators supported by predicate terms — the paper's
/// {<, >, <=, >=, =, !=}.
enum class CompareOp { kLt, kGt, kLe, kGe, kEq, kNe };

std::string CompareOpName(CompareOp op);

/// Evaluates `left op right`.
bool EvalCompare(const Value& left, CompareOp op, const Value& right);

/// \brief A simple predicate term `attribute op constant` — the form the
/// paper's C_f restrictions and Rete t-const nodes use.
struct PredicateTerm {
  std::size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value constant;

  bool Matches(const Tuple& tuple) const {
    return EvalCompare(tuple.value(column), op, constant);
  }

  bool operator==(const PredicateTerm&) const = default;
  std::string ToString(const Schema* schema = nullptr) const;
};

/// \brief A conjunction of simple terms.
class Conjunction {
 public:
  Conjunction() = default;
  explicit Conjunction(std::vector<PredicateTerm> terms)
      : terms_(std::move(terms)) {}

  const std::vector<PredicateTerm>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }
  std::size_t size() const { return terms_.size(); }

  /// True if every term matches.  Terms are evaluated in order and the first
  /// one that rejects the tuple stops the evaluation; `screens` (if non-null)
  /// is incremented by the number of terms evaluated, so callers can charge
  /// C1.
  bool Matches(const Tuple& tuple, std::size_t* screens = nullptr) const;

  bool operator==(const Conjunction&) const = default;
  std::string ToString(const Schema* schema = nullptr) const;

 private:
  std::vector<PredicateTerm> terms_;
};

}  // namespace procsim::rel

#endif  // PROCSIM_RELATIONAL_PREDICATE_H_
