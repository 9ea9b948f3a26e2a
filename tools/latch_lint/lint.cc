#include "latch_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core/core.h"

namespace procsim::lint {
namespace {

/// "src/storage/buffer_cache.cc" -> "buffer_cache": header/impl pairs share
/// one mutex namespace.
std::string UnitKey(const std::string& path) {
  auto slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  auto dot = base.find_last_of('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  // foo_test shares the unit of foo so fixtures can reuse declarations.
  const std::string suffix = "_test";
  if (base.size() > suffix.size() &&
      base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
    base = base.substr(0, base.size() - suffix.size());
  }
  return base;
}

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kKeywords = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "static_assert", "decltype", "alignof", "new", "delete", "throw"};
  return kKeywords;
}

/// True for the key shape this pass owns: `kFrom->kTo`.
bool IsLatchKey(const std::string& key) {
  static const std::regex kShape(R"(^k\w+->k\w+$)");
  return std::regex_match(key, kShape);
}

// ---------------------------------------------------------------------------
// Declarations: mutex name -> rank(s)
// ---------------------------------------------------------------------------

struct MutexTable {
  /// unit -> mutex name -> ranks (a name should have one rank per unit, but
  /// a set keeps re-declarations harmless).
  std::map<std::string, std::map<std::string, std::set<int>>> by_unit;
  /// mutex name -> union of ranks across all units (cross-unit fallback).
  std::map<std::string, std::set<int>> global;
  std::size_t count = 0;
};

void RecordMutex(MutexTable* table, const std::string& unit,
                 const std::string& name, int rank) {
  auto& ranks = table->by_unit[unit][name];
  if (ranks.insert(rank).second) ++table->count;
  table->global[name].insert(rank);
}

/// Finds every ranked-mutex / LatchStripes declaration in `clean` and
/// records it under `unit`.
void CollectMutexDecls(const std::string& clean, const std::string& unit,
                       const RankTable& ranks, MutexTable* table) {
  static const std::regex kDirect(
      R"(\b(?:RankedMutex|RankedSharedMutex|LatchStripes)\s+(\w+)\s*[{(]\s*(?:\w+\s*::\s*)*LatchRank\s*::\s*(k\w+))");
  static const std::regex kStripesAssign(
      R"((\w+)\s*=\s*std\s*::\s*make_unique\s*<\s*(?:\w+\s*::\s*)*LatchStripes\s*>\s*\(\s*(?:\w+\s*::\s*)*LatchRank\s*::\s*(k\w+))");
  static const std::regex kCtorInit(
      R"([:,]\s*(\w+)\s*[({]\s*(?:\w+\s*::\s*)*LatchRank\s*::\s*(k\w+))");
  for (const std::regex* pattern : {&kDirect, &kStripesAssign, &kCtorInit}) {
    for (auto it = std::sregex_iterator(clean.begin(), clean.end(), *pattern);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      const std::string rank_name = (*it)[2].str();
      auto rank = ranks.value_by_name.find(rank_name);
      if (rank == ranks.value_by_name.end()) continue;
      // Filter type/keyword captures the loose ctor-init pattern can make.
      if (name == "RankedMutex" || name == "RankedSharedMutex" ||
          name == "LatchStripes") {
        continue;
      }
      RecordMutex(table, unit, name, rank->second);
    }
  }
}

// ---------------------------------------------------------------------------
// Function scanning: guard constructions, call sites, scope events
// ---------------------------------------------------------------------------

struct AcqEvent {
  std::set<int> ranks;
  std::string mutex_name;
  int line = 0;
  int depth = 0;
};

struct CallEvent {
  std::string callee;
  int line = 0;
};

struct Event {
  enum class Kind { kAcquire, kCall, kScopeClose };
  Kind kind;
  AcqEvent acquire;    // kAcquire
  CallEvent call;      // kCall
  int close_depth = 0; // kScopeClose: depth of the scope being closed
};

struct FunctionOccurrence {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<Event> events;
};

struct FileScan {
  std::vector<FunctionOccurrence> functions;
  std::size_t guard_sites = 0;
};

/// First plausible function name in a scope header, or "" if the `{` opens
/// a non-function scope.  `container` is set for class/namespace/enum/...
std::string HeaderFunctionName(const std::string& header, bool* container) {
  *container = false;
  const std::string trimmed = Trim(header);
  if (trimmed.empty()) return "";
  static const std::regex kLeading(R"(^(\w+))");
  std::smatch lead;
  if (std::regex_search(trimmed, lead, kLeading)) {
    const std::string first = lead[1].str();
    if (first == "namespace" || first == "class" || first == "struct" ||
        first == "union" || first == "enum" || first == "extern") {
      *container = true;
      return "";
    }
    if (first == "else" || first == "do" || first == "try") return "";
  }
  static const std::regex kName(R"((\w+)\s*\()");
  for (auto it = std::sregex_iterator(trimmed.begin(), trimmed.end(), kName);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    const std::size_t pos = static_cast<std::size_t>(it->position(1));
    if (ControlKeywords().count(name) != 0) continue;
    // `x.foo(` / `x->foo(` is a call expression (a lambda argument's body is
    // about to open), not a definition.
    std::size_t before = pos;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(trimmed[before - 1]))) {
      --before;
    }
    if (before > 0) {
      const char prev = trimmed[before - 1];
      if (prev == '.') continue;
      if (prev == '>' && before > 1 && trimmed[before - 2] == '-') continue;
    }
    // A top-level `=` before the name means we are inside an initializer
    // expression, not a signature.
    bool after_assign = false;
    for (std::size_t i = 0; i < pos; ++i) {
      if (trimmed[i] != '=') continue;
      const char p = i > 0 ? trimmed[i - 1] : '\0';
      const char n = i + 1 < trimmed.size() ? trimmed[i + 1] : '\0';
      if (p == '=' || p == '!' || p == '<' || p == '>' || n == '=') continue;
      after_assign = true;
      break;
    }
    if (after_assign) continue;
    return name;
  }
  return "";
}

/// Resolves a guard's mutex expression to candidate ranks.
std::set<int> ResolveMutexExpr(const std::string& expr,
                               const std::string& unit,
                               const MutexTable& mutexes,
                               std::string* resolved_name) {
  std::string name;
  static const std::regex kStripeAccess(
      R"((\w+)\s*(?:->|\.)\s*(?:For|At)\s*\()");
  std::smatch stripe;
  if (std::regex_search(expr, stripe, kStripeAccess)) {
    name = stripe[1].str();
  } else {
    static const std::regex kIdent(R"(\w+)");
    for (auto it = std::sregex_iterator(expr.begin(), expr.end(), kIdent);
         it != std::sregex_iterator(); ++it) {
      const std::string token = it->str();
      if (token == "std" || token == "this" || token == "defer_lock" ||
          token == "adopt_lock" || token == "try_to_lock" ||
          std::isdigit(static_cast<unsigned char>(token[0]))) {
        continue;
      }
      name = token;  // keep the last plausible identifier
    }
  }
  if (resolved_name != nullptr) *resolved_name = name;
  if (name.empty()) return {};
  auto unit_it = mutexes.by_unit.find(unit);
  if (unit_it != mutexes.by_unit.end()) {
    auto it = unit_it->second.find(name);
    if (it != unit_it->second.end()) return it->second;
  }
  auto global_it = mutexes.global.find(name);
  if (global_it != mutexes.global.end()) return global_it->second;
  return {};
}

/// Splits `args` on top-level commas.
std::vector<std::string> SplitArgs(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string current;
  for (char c : args) {
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(Trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!Trim(current).empty()) out.push_back(Trim(current));
  return out;
}

/// Collects `using X = ...RankedLockGuard;` style aliases in one file.
std::vector<std::string> CollectGuardAliases(const std::string& clean) {
  std::vector<std::string> aliases;
  static const std::regex kAlias(
      R"(\busing\s+(\w+)\s*=\s*(?:\w+\s*::\s*)*(?:RankedLockGuard|RankedSharedLockGuard|RankedUniqueLock)\s*;)");
  for (auto it = std::sregex_iterator(clean.begin(), clean.end(), kAlias);
       it != std::sregex_iterator(); ++it) {
    aliases.push_back((*it)[1].str());
  }
  return aliases;
}

std::regex BuildGuardRegex(const std::vector<std::string>& aliases) {
  std::string alternatives =
      "RankedLockGuard|RankedSharedLockGuard|RankedUniqueLock|lock_guard|"
      "unique_lock|shared_lock|scoped_lock";
  for (const std::string& alias : aliases) alternatives += "|" + alias;
  return std::regex(R"(\b(?:\w+\s*::\s*)*()" + alternatives +
                    R"()\s*(?:<[^;>]*>)?\s+(\w+)\s*([({]))");
}

/// Scans one file: function occurrences with ordered acquire/call/scope
/// events.  (Suppressions are collected corpus-wide by SuppressionSet.)
FileScan ScanFile(const SourceFile& file, const std::string& clean,
                  const MutexTable& mutexes) {
  FileScan scan;
  const std::vector<std::string> lines = SplitLines(clean);

  const std::string unit = UnitKey(file.path);
  const std::regex guard_regex = BuildGuardRegex(CollectGuardAliases(clean));
  static const std::regex kCall(R"((\w+)\s*\()");

  struct Scope {
    int depth = 0;
    int function_index = -1;  ///< index into scan.functions, -1 otherwise
    bool is_function_root = false;
  };
  std::vector<Scope> scopes;
  int depth = 0;
  int current_function = -1;
  std::string pending_header;

  auto emit = [&](Event event) {
    if (current_function >= 0) {
      scan.functions[static_cast<std::size_t>(current_function)]
          .events.push_back(std::move(event));
    }
  };

  for (std::size_t line_index = 0; line_index < lines.size(); ++line_index) {
    const std::string& line = lines[line_index];
    const int line_no = static_cast<int>(line_index + 1);

    // Guard constructions and calls on this line, keyed by column so they
    // interleave correctly with braces.
    struct LineEvent {
      std::size_t column;
      char kind;  // 'g' guard, 'c' call, '{', '}', ';'
      AcqEvent acquire;
      CallEvent call;
    };
    std::vector<LineEvent> line_events;

    std::set<std::size_t> guard_columns;  // suppress call-match of guard name
    for (auto it = std::sregex_iterator(line.begin(), line.end(), guard_regex);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open = static_cast<std::size_t>(it->position(3));
      const char open_char = line[open];
      const char close_char = open_char == '(' ? ')' : '}';
      int nesting = 0;
      std::size_t end = open;
      for (; end < line.size(); ++end) {
        if (line[end] == open_char) ++nesting;
        if (line[end] == close_char && --nesting == 0) break;
      }
      if (end >= line.size()) continue;  // malformed / multi-line: skip
      const std::string args = line.substr(open + 1, end - open - 1);
      AcqEvent acquire;
      acquire.line = line_no;
      bool resolved_any = false;
      for (const std::string& arg : SplitArgs(args)) {
        std::string name;
        const std::set<int> arg_ranks =
            ResolveMutexExpr(arg, unit, mutexes, &name);
        if (!arg_ranks.empty()) {
          acquire.ranks.insert(arg_ranks.begin(), arg_ranks.end());
          acquire.mutex_name = name;
          resolved_any = true;
        }
      }
      ++scan.guard_sites;
      guard_columns.insert(static_cast<std::size_t>(it->position(2)));
      // The braces of a brace-init guard are part of the declaration, not
      // scopes; mask them out of the brace walk below.
      if (!resolved_any) continue;
      LineEvent event;
      event.column = static_cast<std::size_t>(it->position(0));
      event.kind = 'g';
      event.acquire = std::move(acquire);
      line_events.push_back(std::move(event));
    }

    for (auto it = std::sregex_iterator(line.begin(), line.end(), kCall);
         it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position(1));
      if (guard_columns.count(pos) != 0) continue;
      const std::string name = (*it)[1].str();
      if (ControlKeywords().count(name) != 0) continue;
      // Skip dot-calls (`frames_.size()`): receivers held by value are
      // overwhelmingly std containers / small value objects whose method
      // names (size, count, ...) collide with latched accessors elsewhere.
      // Arrow-calls — how this codebase reaches its latched subsystems —
      // and receiver-less calls are kept.
      std::size_t before = pos;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(line[before - 1]))) {
        --before;
      }
      if (before > 0 && line[before - 1] == '.') continue;
      LineEvent event;
      event.column = pos;
      event.kind = 'c';
      event.call = CallEvent{name, line_no};
      line_events.push_back(event);
    }

    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '{' || line[i] == '}' || line[i] == ';') {
        LineEvent event;
        event.column = i;
        event.kind = line[i];
        line_events.push_back(event);
      }
      pending_header.push_back(line[i]);
    }
    pending_header.push_back('\n');

    std::sort(line_events.begin(), line_events.end(),
              [](const LineEvent& a, const LineEvent& b) {
                return a.column < b.column;
              });

    // Replay the line in order.  pending_header accumulated the raw text;
    // we re-slice it per structural token.
    for (const LineEvent& event : line_events) {
      switch (event.kind) {
        case 'g':
          emit([&] {
            Event e;
            e.kind = Event::Kind::kAcquire;
            e.acquire = event.acquire;
            e.acquire.depth = depth;
            return e;
          }());
          break;
        case 'c':
          emit([&] {
            Event e;
            e.kind = Event::Kind::kCall;
            e.call = event.call;
            return e;
          }());
          break;
        case ';':
          pending_header.clear();
          break;
        case '{': {
          // Header text: everything accumulated since the last `;`/`{`/`}`
          // up to this brace.  pending_header already holds the whole
          // current line, so strip the tail past this brace's column.
          std::string header = pending_header;
          const std::size_t line_start =
              header.size() >= line.size() + 1 ? header.size() - line.size() - 1
                                               : 0;
          if (line_start + event.column <= header.size()) {
            header = header.substr(0, line_start + event.column);
          }
          bool container = false;
          const std::string name = HeaderFunctionName(header, &container);
          Scope scope;
          scope.depth = depth;
          scope.function_index = current_function;
          if (!name.empty()) {
            FunctionOccurrence function;
            function.name = name;
            function.file = file.path;
            function.line = line_no;
            scan.functions.push_back(std::move(function));
            scope.function_index =
                static_cast<int>(scan.functions.size()) - 1;
            scope.is_function_root = true;
          } else if (container) {
            scope.function_index = -1;
          }
          scopes.push_back(scope);
          current_function = scope.function_index;
          ++depth;
          pending_header.clear();
          break;
        }
        case '}': {
          if (!scopes.empty()) {
            // Guards constructed inside the closing scope live at the
            // current (inside) depth, so that is the pop threshold.
            emit([&] {
              Event e;
              e.kind = Event::Kind::kScopeClose;
              e.close_depth = depth;
              return e;
            }());
            scopes.pop_back();
            current_function =
                scopes.empty() ? -1 : scopes.back().function_index;
          }
          depth = std::max(0, depth - 1);
          pending_header.clear();
          break;
        }
        default:
          break;
      }
    }
  }
  return scan;
}

// ---------------------------------------------------------------------------
// May-acquire closure and edge checking
// ---------------------------------------------------------------------------

struct AcqInfo {
  std::string rank_name;
  std::string mutex_name;
  std::string file;
  int line = 0;
  std::vector<std::string> chain;  ///< outermost call first
  /// (file, line) of each chain link, for suppression lookup: an
  /// `allow(kA->kB)` comment on any link of the chain silences edges
  /// carried through it.
  std::vector<std::pair<std::string, int>> chain_sites;
};

using MayAcquireMap = std::map<std::string, std::map<int, AcqInfo>>;

MayAcquireMap ComputeMayAcquire(
    const std::vector<std::pair<const SourceFile*, FileScan>>& scans,
    const RankTable& ranks) {
  MayAcquireMap may_acquire;
  // Seed with direct acquisitions.
  for (const auto& [file, scan] : scans) {
    for (const FunctionOccurrence& function : scan.functions) {
      for (const Event& event : function.events) {
        if (event.kind != Event::Kind::kAcquire) continue;
        for (int rank : event.acquire.ranks) {
          auto& slot = may_acquire[function.name];
          if (slot.count(rank) != 0) continue;
          AcqInfo info;
          auto rank_name = ranks.name_by_value.find(rank);
          info.rank_name = rank_name == ranks.name_by_value.end()
                               ? "?"
                               : rank_name->second;
          info.mutex_name = event.acquire.mutex_name;
          info.file = function.file;
          info.line = event.acquire.line;
          slot.emplace(rank, std::move(info));
        }
      }
    }
  }
  // Propagate through name-matched calls to a fixed point.  A callee whose
  // name equals the caller's is skipped: recursion and interface dispatch to
  // an override of the same method would otherwise feed a function its own
  // acquisitions (e.g. Engine::Access -> Strategy::Access).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [file, scan] : scans) {
      for (const FunctionOccurrence& function : scan.functions) {
        for (const Event& event : function.events) {
          if (event.kind != Event::Kind::kCall) continue;
          if (event.call.callee == function.name) continue;
          auto callee = may_acquire.find(event.call.callee);
          if (callee == may_acquire.end()) continue;
          for (const auto& [rank, info] : callee->second) {
            auto& slot = may_acquire[function.name];
            if (slot.count(rank) != 0) continue;
            AcqInfo hoisted = info;
            hoisted.chain.insert(
                hoisted.chain.begin(),
                function.name + " (" + function.file + ":" +
                    std::to_string(event.call.line) + ") calls " +
                    event.call.callee);
            hoisted.chain_sites.insert(
                hoisted.chain_sites.begin(),
                {function.file, event.call.line});
            slot.emplace(rank, std::move(hoisted));
            changed = true;
          }
        }
      }
    }
  }
  return may_acquire;
}

std::string RankLabel(const RankTable& ranks, int rank) {
  auto it = ranks.name_by_value.find(rank);
  const std::string name = it == ranks.name_by_value.end() ? "?" : it->second;
  return name + "=" + std::to_string(rank);
}

void CheckFunction(const SourceFile& file, SuppressionSet* suppressions,
                   const FunctionOccurrence& function,
                   const MayAcquireMap& may_acquire, const RankTable& ranks,
                   LintResult* result, std::set<std::string>* seen) {
  std::vector<AcqEvent> held;
  auto report = [&](int from_rank, const std::string& from_mutex,
                    const std::string& from_file, int from_line, int to_rank,
                    const std::string& to_mutex, int to_line,
                    const std::vector<std::string>& chain,
                    const std::vector<std::pair<std::string, int>>& sites) {
    const std::string from_name =
        ranks.name_by_value.count(from_rank) != 0
            ? ranks.name_by_value.at(from_rank)
            : "?";
    const std::string to_name = ranks.name_by_value.count(to_rank) != 0
                                    ? ranks.name_by_value.at(to_rank)
                                    : "?";
    const std::string key = from_name + "->" + to_name;
    if (suppressions->Match(file.path, to_line, key)) {
      ++result->suppressed_edges;
      return;
    }
    for (const auto& [site_file, site_line] : sites) {
      if (suppressions->Match(site_file, site_line, key)) {
        ++result->suppressed_edges;
        return;
      }
    }
    Violation violation;
    violation.to_file = file.path;
    violation.to_line = to_line;
    violation.to_rank = to_rank;
    violation.to_rank_name = to_name;
    violation.from_file = from_file;
    violation.from_line = from_line;
    violation.from_rank = from_rank;
    violation.from_rank_name = from_name;
    violation.call_chain = chain;
    std::ostringstream message;
    message << file.path << ":" << to_line << ": latch-rank: acquires '"
            << to_mutex << "' (" << RankLabel(ranks, to_rank)
            << ") while holding '" << from_mutex << "' ("
            << RankLabel(ranks, from_rank) << ") acquired at " << from_file
            << ":" << from_line;
    if (from_rank == to_rank) {
      message << " — same-rank re-entry";
    } else {
      message << " — rank inversion";
    }
    if (!chain.empty()) {
      message << " [via ";
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (i > 0) message << " -> ";
        message << chain[i];
      }
      message << "]";
    }
    violation.message = message.str();
    if (seen->insert(violation.message).second) {
      result->violations.push_back(std::move(violation));
    }
  };

  for (const Event& event : function.events) {
    switch (event.kind) {
      case Event::Kind::kScopeClose:
        while (!held.empty() && held.back().depth >= event.close_depth) {
          held.pop_back();
        }
        break;
      case Event::Kind::kAcquire: {
        for (const AcqEvent& active : held) {
          for (int from : active.ranks) {
            for (int to : event.acquire.ranks) {
              ++result->edges_checked;
              if (to <= from) {
                report(from, active.mutex_name, function.file, active.line,
                       to, event.acquire.mutex_name, event.acquire.line, {},
                       {});
              }
            }
          }
        }
        held.push_back(event.acquire);
        break;
      }
      case Event::Kind::kCall: {
        if (held.empty()) break;
        if (event.call.callee == function.name) break;
        auto callee = may_acquire.find(event.call.callee);
        if (callee == may_acquire.end()) break;
        for (const AcqEvent& active : held) {
          for (int from : active.ranks) {
            for (const auto& [to, info] : callee->second) {
              ++result->edges_checked;
              if (to <= from) {
                std::vector<std::string> chain;
                chain.push_back(function.name + " (" + function.file + ":" +
                                std::to_string(event.call.line) + ") calls " +
                                event.call.callee);
                chain.insert(chain.end(), info.chain.begin(),
                             info.chain.end());
                chain.push_back("acquired at " + info.file + ":" +
                                std::to_string(info.line));
                std::vector<std::pair<std::string, int>> sites =
                    info.chain_sites;
                sites.emplace_back(info.file, info.line);
                report(from, active.mutex_name, function.file, active.line,
                       to, info.mutex_name, event.call.line, chain, sites);
              }
            }
          }
        }
        break;
      }
    }
  }
}

}  // namespace

RankTable ParseRankTable(const std::string& latch_header_source) {
  RankTable table;
  const std::string clean = StripCommentsAndStrings(latch_header_source);
  static const std::regex kEnum(
      R"(enum\s+class\s+LatchRank[^{]*\{([^}]*)\})");
  std::smatch body;
  if (!std::regex_search(clean, body, kEnum)) return table;
  const std::string entries = body[1].str();
  static const std::regex kEntry(R"((k\w+)\s*=\s*(\d+))");
  for (auto it = std::sregex_iterator(entries.begin(), entries.end(), kEntry);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    const int value = std::stoi((*it)[2].str());
    table.value_by_name[name] = value;
    table.name_by_value[value] = name;
    table.declared.emplace_back(name, value);
  }
  return table;
}

LintResult AnalyzeSources(const std::vector<SourceFile>& files,
                          const RankTable& ranks) {
  LintResult result;
  if (ranks.empty()) return result;

  SuppressionSet suppressions(files);

  MutexTable mutexes;
  std::vector<std::string> cleans;
  cleans.reserve(files.size());
  for (const SourceFile& file : files) {
    cleans.push_back(StripCommentsAndStrings(file.content));
    CollectMutexDecls(cleans.back(), UnitKey(file.path), ranks, &mutexes);
  }
  result.mutexes_found = mutexes.count;

  std::vector<std::pair<const SourceFile*, FileScan>> scans;
  scans.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    scans.emplace_back(&files[i], ScanFile(files[i], cleans[i], mutexes));
    result.guard_sites_found += scans.back().second.guard_sites;
    result.functions_scanned += scans.back().second.functions.size();
  }

  const MayAcquireMap may_acquire = ComputeMayAcquire(scans, ranks);

  std::set<std::string> seen;
  for (const auto& [file, scan] : scans) {
    for (const FunctionOccurrence& function : scan.functions) {
      CheckFunction(*file, &suppressions, function, may_acquire, ranks,
                    &result, &seen);
    }
  }
  std::sort(result.violations.begin(), result.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.to_file, a.to_line, a.message) <
                     std::tie(b.to_file, b.to_line, b.message);
            });

  for (const Finding& finding : suppressions.malformed()) {
    BadSuppression bad;
    bad.file = finding.file;
    bad.line = finding.line;
    bad.message = finding.message;
    result.bad_suppressions.push_back(std::move(bad));
  }
  result.unused_suppressions =
      suppressions.UnusedFindings("latch-rank", IsLatchKey);
  return result;
}

std::vector<Finding> ToFindings(const LintResult& result) {
  std::vector<Finding> findings;
  for (const Violation& violation : result.violations) {
    Finding finding;
    finding.pass = "latch-rank";
    finding.file = violation.to_file;
    finding.line = violation.to_line;
    finding.key = violation.from_rank_name + "->" + violation.to_rank_name;
    finding.message = violation.message;
    findings.push_back(std::move(finding));
  }
  for (const BadSuppression& bad : result.bad_suppressions) {
    Finding finding;
    finding.pass = "suppression";
    finding.file = bad.file;
    finding.line = bad.line;
    finding.message = bad.message;
    findings.push_back(std::move(finding));
  }
  findings.insert(findings.end(), result.unused_suppressions.begin(),
                  result.unused_suppressions.end());
  return findings;
}

std::string RenderReport(const LintResult& result) {
  std::ostringstream out;
  for (const Violation& violation : result.violations) {
    out << violation.message << "\n";
  }
  for (const BadSuppression& finding : result.bad_suppressions) {
    out << finding.message << "\n";
  }
  for (const Finding& finding : result.unused_suppressions) {
    out << finding.message << "\n";
  }
  out << "latch-rank: " << result.mutexes_found << " ranked mutexes, "
      << result.guard_sites_found << " guard sites, "
      << result.functions_scanned << " functions, " << result.edges_checked
      << " edges checked, " << result.suppressed_edges << " suppressed, "
      << result.violations.size() << " violations, "
      << result.bad_suppressions.size() << " bad suppressions, "
      << result.unused_suppressions.size() << " unused suppressions\n";
  return out.str();
}

}  // namespace procsim::lint
