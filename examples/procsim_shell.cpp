// An interactive shell over the library: create tables, insert and update
// rows, define stored procedures in QUEL under a chosen strategy, and watch
// the simulated 1987 device costs per command.  Reads commands from stdin,
// so it is scriptable:
//
//   ./procsim_shell <<'EOF'
//   create EMP (empno btree, dept, job)
//   create DEPT (deptno hash, floor)
//   insert EMP 1 0 1
//   insert DEPT 0 1
//   define progs1 avm retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.deptno
//   access progs1
//   update EMP 1 1 0 2
//   access progs1
//   cost
//   EOF
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "proc/cache_budget.h"
#include "proc/update_cache_rvm.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "relational/parser.h"
#include "util/table_printer.h"

using namespace procsim;

namespace {

struct Shell {
  CostMeter meter;
  storage::SimulatedDisk disk{4000, &meter};
  rel::Catalog catalog{&disk};
  rel::Executor executor{&catalog, &meter};
  rel::QuelParser parser{&catalog};
  // Shared by every defined procedure's strategy; unlimited, so it accounts
  // cached results but never evicts one.
  proc::CacheBudget budget{0};

  struct StoredProc {
    std::unique_ptr<proc::Strategy> strategy;  // one strategy per procedure
  };
  std::map<std::string, StoredProc> procedures;
  std::map<std::string, std::vector<storage::RecordId>> rids;

  // --- command handlers ----------------------------------------------------

  Status Create(std::istringstream& in) {
    std::string name;
    in >> name;
    std::string rest;
    std::getline(in, rest);
    // Parse "(col [btree|hash], col, ...)".
    for (char& c : rest) {
      if (c == '(' || c == ')' || c == ',') c = ' ';
    }
    std::istringstream cols(rest);
    rel::Relation::Options options;
    options.tuple_width_bytes = 100;
    std::vector<rel::Column> schema;
    std::string token;
    while (cols >> token) {
      if (token == "btree") {
        if (schema.empty()) return Status::InvalidArgument("btree before column");
        options.btree_column = schema.size() - 1;
      } else if (token == "hash") {
        if (schema.empty()) return Status::InvalidArgument("hash before column");
        options.hash_column = schema.size() - 1;
      } else {
        schema.push_back(rel::Column{token, rel::ValueType::kInt64});
      }
    }
    if (name.empty() || schema.empty()) {
      return Status::InvalidArgument("usage: create <name> (<col> [btree|hash], ...)");
    }
    Result<rel::Relation*> created =
        catalog.CreateRelation(name, rel::Schema(schema), options);
    if (!created.ok()) return created.status();
    std::cout << "created " << name << " "
              << created.ValueOrDie()->schema().ToString() << "\n";
    return Status::OK();
  }

  Status Insert(std::istringstream& in) {
    std::string name;
    in >> name;
    Result<rel::Relation*> relation = catalog.GetRelation(name);
    if (!relation.ok()) return relation.status();
    std::vector<rel::Value> values;
    int64_t v = 0;
    while (in >> v) values.emplace_back(v);
    if (values.size() != relation.ValueOrDie()->schema().num_columns()) {
      return Status::InvalidArgument("expected " +
                                     std::to_string(relation.ValueOrDie()
                                                        ->schema()
                                                        .num_columns()) +
                                     " integer values");
    }
    const rel::Tuple tuple{std::move(values)};
    Result<storage::RecordId> rid = relation.ValueOrDie()->Insert(tuple);
    if (!rid.ok()) return rid.status();
    rids[name].push_back(rid.ValueOrDie());
    ivm::ChangeBatch changes;
    changes.AddInsert(tuple);
    for (auto& [pname, stored] : procedures) {
      stored.strategy->OnBatch(name, changes);
      PROCSIM_RETURN_IF_ERROR(stored.strategy->OnTransactionEnd());
    }
    return Status::OK();
  }

  Status Update(std::istringstream& in) {
    std::string name;
    int64_t match = 0;
    in >> name >> match;
    Result<rel::Relation*> relation = catalog.GetRelation(name);
    if (!relation.ok()) return relation.status();
    std::vector<rel::Value> values;
    int64_t v = 0;
    while (in >> v) values.emplace_back(v);
    if (values.size() != relation.ValueOrDie()->schema().num_columns()) {
      return Status::InvalidArgument(
          "usage: update <table> <col0-match> <new values...>");
    }
    // Find the first row whose column 0 equals `match`.
    storage::RecordId target;
    rel::Tuple old_tuple;
    bool found = false;
    PROCSIM_RETURN_IF_ERROR(relation.ValueOrDie()->Scan(
        [&](storage::RecordId rid, const rel::Tuple& row) {
          if (row.value(0).AsInt64() == match) {
            target = rid;
            old_tuple = row;
            found = true;
            return false;
          }
          return true;
        }));
    if (!found) return Status::NotFound("no row with col0 = " +
                                        std::to_string(match));
    const rel::Tuple new_tuple{std::move(values)};
    PROCSIM_RETURN_IF_ERROR(
        relation.ValueOrDie()->UpdateInPlace(target, new_tuple));
    ivm::ChangeBatch changes;
    changes.AddDelete(old_tuple);
    changes.AddInsert(new_tuple);
    for (auto& [pname, stored] : procedures) {
      stored.strategy->OnBatch(name, changes);
      PROCSIM_RETURN_IF_ERROR(stored.strategy->OnTransactionEnd());
    }
    std::cout << "updated 1 row\n";
    return Status::OK();
  }

  Status Define(std::istringstream& in) {
    std::string name;
    std::string kind;
    in >> name >> kind;
    std::string text;
    std::getline(in, text);
    Result<rel::ProcedureQuery> query = parser.Parse(text);
    if (!query.ok()) return query.status();
    const std::map<std::string, cost::Strategy> kinds = {
        {"ar", cost::Strategy::kAlwaysRecompute},
        {"ci", cost::Strategy::kCacheInvalidate},
        {"avm", cost::Strategy::kUpdateCacheAvm},
        {"rvm", cost::Strategy::kUpdateCacheRvm}};
    const auto found = kinds.find(kind);
    if (found == kinds.end()) {
      return Status::InvalidArgument(
          "strategy must be one of ar|ci|avm|rvm, got '" + kind + "'");
    }
    StoredProc stored;
    stored.strategy = proc::MakeStrategy(found->second, &catalog, &executor,
                                         &meter, cost::Params{}, &budget);
    proc::DatabaseProcedure procedure;
    procedure.id = 0;
    procedure.name = name;
    procedure.query = query.TakeValueOrDie();
    PROCSIM_RETURN_IF_ERROR(stored.strategy->AddProcedure(procedure));
    PROCSIM_RETURN_IF_ERROR(stored.strategy->Prepare());
    procedures[name] = std::move(stored);
    std::cout << "defined " << name << " [" << kind
              << "]: " << procedure.query.ToString() << "\n";
    return Status::OK();
  }

  Status Access(std::istringstream& in) {
    std::string name;
    in >> name;
    auto it = procedures.find(name);
    if (it == procedures.end()) {
      return Status::NotFound("no procedure named " + name);
    }
    const double before = meter.total_ms();
    Result<std::vector<rel::Tuple>> value = it->second.strategy->Access(0);
    if (!value.ok()) return value.status();
    for (const rel::Tuple& row : value.ValueOrDie()) {
      std::cout << "  " << row.ToString() << "\n";
    }
    std::cout << value.ValueOrDie().size() << " rows ("
              << TablePrinter::FormatDouble(meter.total_ms() - before, 1)
              << " simulated ms, " << it->second.strategy->name() << ")\n";
    return Status::OK();
  }

  Status Dot(std::istringstream& in) {
    std::string name;
    in >> name;
    auto it = procedures.find(name);
    if (it == procedures.end()) {
      return Status::NotFound("no procedure named " + name);
    }
    auto* rvm = dynamic_cast<proc::UpdateCacheRvmStrategy*>(
        it->second.strategy.get());
    if (rvm == nullptr) {
      return Status::InvalidArgument(name + " is not maintained by RVM");
    }
    std::cout << "t-const=" << rvm->network_stats().tconst_nodes
              << " alpha=" << rvm->network_stats().alpha_memories
              << " and=" << rvm->network_stats().and_nodes
              << " beta=" << rvm->network_stats().beta_memories << "\n"
              << rvm->NetworkDot();
    return Status::OK();
  }

  void Cost() const { std::cout << meter.ToString() << "\n"; }

  void Tables() const {
    for (const std::string& name : catalog.RelationNames()) {
      const rel::Relation* relation =
          catalog.GetRelation(name).ValueOrDie();
      std::cout << name << " " << relation->schema().ToString() << " ("
                << relation->tuple_count() << " rows)\n";
    }
  }

  void Help() const {
    std::cout <<
        "commands:\n"
        "  create <table> (<col> [btree|hash], ...)   all columns int64\n"
        "  insert <table> <v0> <v1> ...\n"
        "  update <table> <col0-match> <v0> <v1> ...\n"
        "  define <proc> <ar|ci|avm|rvm> retrieve (...) where ...\n"
        "  access <proc>\n"
        "  net <proc>        Rete network stats (rvm procedures)\n"
        "  tables | cost | help | quit\n";
  }
};

}  // namespace

int main() {
  Shell shell;
  std::cout << "procsim shell — 'help' for commands\n";
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string command;
    in >> command;
    Status status = Status::OK();
    if (command == "create") {
      status = shell.Create(in);
    } else if (command == "insert") {
      status = shell.Insert(in);
    } else if (command == "update") {
      status = shell.Update(in);
    } else if (command == "define") {
      status = shell.Define(in);
    } else if (command == "access") {
      status = shell.Access(in);
    } else if (command == "net") {
      status = shell.Dot(in);
    } else if (command == "tables") {
      shell.Tables();
    } else if (command == "cost") {
      shell.Cost();
    } else if (command == "help") {
      shell.Help();
    } else if (command == "quit" || command == "exit") {
      break;
    } else {
      std::cout << "unknown command '" << command << "' — try 'help'\n";
    }
    if (!status.ok()) std::cout << "error: " << status.ToString() << "\n";
  }
  return 0;
}
