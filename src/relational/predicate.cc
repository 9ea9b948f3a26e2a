#include "relational/predicate.h"

#include <sstream>

namespace procsim::rel {

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

bool EvalCompare(const Value& left, CompareOp op, const Value& right) {
  const std::strong_ordering cmp = left.Compare(right);
  switch (op) {
    case CompareOp::kLt:
      return cmp == std::strong_ordering::less;
    case CompareOp::kGt:
      return cmp == std::strong_ordering::greater;
    case CompareOp::kLe:
      return cmp != std::strong_ordering::greater;
    case CompareOp::kGe:
      return cmp != std::strong_ordering::less;
    case CompareOp::kEq:
      return cmp == std::strong_ordering::equal;
    case CompareOp::kNe:
      return cmp != std::strong_ordering::equal;
  }
  return false;
}

std::string PredicateTerm::ToString(const Schema* schema) const {
  std::ostringstream out;
  if (schema != nullptr && column < schema->num_columns()) {
    out << schema->column(column).name;
  } else {
    out << "$" << column;
  }
  out << " " << CompareOpName(op) << " " << constant.ToString();
  return out.str();
}

bool Conjunction::Matches(const Tuple& tuple, std::size_t* screens) const {
  for (const PredicateTerm& term : terms_) {
    if (screens != nullptr) ++*screens;
    if (!term.Matches(tuple)) return false;
  }
  return true;
}

std::string Conjunction::ToString(const Schema* schema) const {
  if (terms_.empty()) return "true";
  std::ostringstream out;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out << " and ";
    out << terms_[i].ToString(schema);
  }
  return out.str();
}

}  // namespace procsim::rel
