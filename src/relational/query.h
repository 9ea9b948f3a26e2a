#ifndef PROCSIM_RELATIONAL_QUERY_H_
#define PROCSIM_RELATIONAL_QUERY_H_

#include <string>
#include <vector>

#include "relational/catalog.h"
#include "relational/predicate.h"
#include "relational/tuple.h"

namespace procsim::rel {

/// \brief The base selection of a procedure query: a key range on the
/// B-tree-indexed column of `relation` (the paper's C_f(R1)), plus optional
/// residual terms evaluated against each retrieved tuple.
struct BaseSelection {
  std::string relation;
  int64_t lo = 0;  ///< inclusive lower bound on the B-tree column
  int64_t hi = 0;  ///< inclusive upper bound on the B-tree column
  Conjunction residual;

  std::string ToString() const;
};

/// \brief One index-nested-loop join stage: probe `relation`'s hash index
/// with the value of `probe_column` of the accumulated outer tuple, then
/// screen each matching inner tuple against `residual` (the paper's
/// C_f2(R2)).  The output tuple is outer ++ inner.
struct JoinStage {
  std::string relation;
  std::size_t probe_column = 0;  ///< index into the accumulated output tuple
  Conjunction residual;          ///< over the inner relation's columns

  bool operator==(const JoinStage&) const = default;
  std::string ToString() const;
};

/// \brief A stored-procedure query: a selection optionally followed by a
/// chain of hash joins.
///
/// The paper's P1 procedures have no join stages; model-1 P2 procedures
/// have one stage (R2); model-2 P2 procedures have two (R2, then R3).
struct ProcedureQuery {
  BaseSelection base;
  std::vector<JoinStage> joins;

  /// Concatenated output schema (base schema followed by each join's
  /// schema, all column names prefixed with their relation name).
  Result<Schema> OutputSchema(const Catalog& catalog) const;

  std::string ToString() const;
};

}  // namespace procsim::rel

#endif  // PROCSIM_RELATIONAL_QUERY_H_
