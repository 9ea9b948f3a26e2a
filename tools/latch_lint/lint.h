#ifndef PROCSIM_TOOLS_LATCH_LINT_LINT_H_
#define PROCSIM_TOOLS_LATCH_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint_core/core.h"

/// \file
/// The latch-rank pass (pass #1 of tools/procsim_lint): scans C++ sources
/// for ranked-mutex declarations and guard-construction sites, builds a
/// static latch-acquisition graph (direct nesting plus a transitive
/// may-acquire closure over name-matched calls), and checks every edge
/// against the LatchRank order — including paths no test executes.
/// Companion to the runtime checker in src/util/latch.cc and the Clang
/// thread-safety annotations (DESIGN.md §9).  Built on lint_core (text
/// stripping, suppression engine, findings).

namespace procsim::lint {

/// One rank from the LatchRank enum: name ("kDatabase") and numeric value.
struct RankTable {
  std::map<std::string, int> value_by_name;  ///< "kDatabase" -> 10
  std::map<int, std::string> name_by_value;
  /// Every (name, value) entry in declaration order, repeats included.
  std::vector<std::pair<std::string, int>> declared;

  bool empty() const { return value_by_name.empty(); }
};

/// Extracts the `enum class LatchRank` table from the contents of
/// util/latch.h.  Returns an empty table if the enum is missing.
RankTable ParseRankTable(const std::string& latch_header_source);

/// A latch-order violation: an acquisition at `to_*` while a latch of an
/// equal or higher rank (`from_*`) is already held on the same path.
struct Violation {
  std::string to_file;
  int to_line = 0;
  std::string to_rank_name;
  int to_rank = 0;
  std::string from_file;
  int from_line = 0;
  std::string from_rank_name;
  int from_rank = 0;
  /// Empty for a direct lexical nesting; otherwise the call chain that
  /// carries the held latch into the acquiring function, outermost first.
  std::vector<std::string> call_chain;
  std::string message;  ///< fully rendered one-line diagnostic
};

/// A malformed suppression comment — a bare `allow()` or one with no text
/// after `because`: suppressions must name a finding and justify it.
struct BadSuppression {
  std::string file;
  int line = 0;
  std::string message;
};

struct LintResult {
  std::vector<Violation> violations;
  std::vector<BadSuppression> bad_suppressions;
  /// Latch-rank suppressions (`allow(kA->kB)`) that matched no finding:
  /// stale keys rot into false confidence, so they are findings too.
  std::vector<Finding> unused_suppressions;
  std::size_t mutexes_found = 0;
  std::size_t guard_sites_found = 0;
  std::size_t functions_scanned = 0;
  std::size_t edges_checked = 0;
  std::size_t suppressed_edges = 0;

  bool ok() const {
    return violations.empty() && bad_suppressions.empty() &&
           unused_suppressions.empty();
  }
};

/// Runs the analysis over `files` against `ranks`.  Pure function of its
/// inputs: no filesystem access, so tests can feed planted fixtures.
LintResult AnalyzeSources(const std::vector<SourceFile>& files,
                          const RankTable& ranks);

/// Flattens a LintResult into generic findings for the procsim_lint driver
/// (pass name "latch-rank").
std::vector<Finding> ToFindings(const LintResult& result);

/// Renders a human-readable report (one line per finding plus a summary).
std::string RenderReport(const LintResult& result);

}  // namespace procsim::lint

#endif  // PROCSIM_TOOLS_LATCH_LINT_LINT_H_
