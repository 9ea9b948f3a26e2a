// Quickstart: the paper's §2 running example.
//
// Builds the EMP/DEPT schema, stores the PROGS1 and CLERKS1 queries as
// database procedures, and answers procedure accesses under all four
// query-processing strategies — Always Recompute, Cache and Invalidate, and
// Update Cache with AVM and with RVM — showing that every strategy returns
// the same answer while charging very different simulated costs.
#include <iostream>
#include <memory>

#include "proc/cache_budget.h"
#include "proc/strategy.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "relational/parser.h"
#include "util/table_printer.h"

using namespace procsim;
using rel::Column;
using rel::Conjunction;
using rel::PredicateTerm;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

namespace {

// Job codes for EMP.job (stored as int64 for index support).
constexpr int64_t kProgrammer = 1;
constexpr int64_t kClerk = 2;

}  // namespace

int main() {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  rel::Catalog catalog(&disk);
  rel::Executor executor(&catalog, &meter);

  // --- schema ---------------------------------------------------------------
  // EMP(empno, job, dept, salary): clustered B-tree on empno.
  rel::Relation::Options emp_options;
  emp_options.tuple_width_bytes = 100;
  emp_options.btree_column = 0;
  rel::Relation* emp =
      catalog
          .CreateRelation("EMP",
                          rel::Schema({Column{"empno", ValueType::kInt64},
                                       Column{"job", ValueType::kInt64},
                                       Column{"dept", ValueType::kInt64},
                                       Column{"salary", ValueType::kInt64}}),
                          emp_options)
          .ValueOrDie();
  // DEPT(deptno, floor): hashed on deptno.
  rel::Relation::Options dept_options;
  dept_options.tuple_width_bytes = 100;
  dept_options.hash_column = 0;
  rel::Relation* dept =
      catalog
          .CreateRelation("DEPT",
                          rel::Schema({Column{"deptno", ValueType::kInt64},
                                       Column{"floor", ValueType::kInt64}}),
                          dept_options)
          .ValueOrDie();

  // --- data (bulk load is free, as in the paper) -----------------------------
  std::vector<storage::RecordId> emp_rids;
  {
    storage::MeteringGuard guard(&disk);
    for (int64_t e = 0; e < 500; ++e) {
      emp_rids.push_back(
          emp->Insert(Tuple({Value(e), Value(e % 2 == 0 ? kProgrammer : kClerk),
                             Value(e % 10), Value(int64_t{30000} + e)}))
              .ValueOrDie());
    }
    for (int64_t d = 0; d < 10; ++d) {
      (void)dept->Insert(Tuple({Value(d), Value(d % 3)}));  // floors 0..2
    }
  }

  // --- the stored procedures -------------------------------------------------
  // Defined in the paper's QUEL syntax and compiled by the built-in parser
  // (job names are integer codes in this schema):
  //   define view PROGS1 (EMP.all, DEPT.all)
  //     where EMP.dept = DEPT.deptno and EMP.job = "Programmer"
  //       and DEPT.floor = 1
  rel::QuelParser quel(&catalog);
  auto make_view = [&](int64_t job) {
    Result<rel::ProcedureQuery> query = quel.Parse(
        "retrieve (EMP.all, DEPT.all) "
        "where EMP.dept = DEPT.deptno and EMP.job = " +
        std::to_string(job) + " and DEPT.floor = 1");
    if (!query.ok()) {
      std::cerr << "parse failed: " << query.status().ToString() << "\n";
      std::exit(1);
    }
    return query.TakeValueOrDie();
  };
  proc::DatabaseProcedure progs1{0, "PROGS1", make_view(kProgrammer)};
  proc::DatabaseProcedure clerks1{1, "CLERKS1", make_view(kClerk)};

  std::cout << "PROGS1 = " << progs1.query.ToString() << "\n";
  std::cout << "CLERKS1 = " << clerks1.query.ToString() << "\n\n";

  // --- run under every strategy ----------------------------------------------
  // Default parameters: 100-byte result tuples, free invalidations.  The
  // unlimited budget accounts cached results but never evicts one.
  const cost::Params params;
  proc::CacheBudget budget(0);
  std::vector<std::unique_ptr<proc::Strategy>> strategies;
  for (cost::Strategy kind : cost::kAllStrategies) {
    strategies.push_back(
        proc::MakeStrategy(kind, &catalog, &executor, &meter, params, &budget));
  }
  for (auto& strategy : strategies) {
    (void)strategy->AddProcedure(progs1);
    (void)strategy->AddProcedure(clerks1);
    Status st = strategy->Prepare();
    if (!st.ok()) {
      std::cerr << "prepare failed: " << st.ToString() << "\n";
      return 1;
    }
  }

  TablePrinter table({"strategy", "PROGS1 rows", "CLERKS1 rows",
                      "cost of 10 reads (ms)", "cost after 1 update (ms)"});
  for (auto& strategy : strategies) {
    meter.Reset();
    std::size_t progs_rows = 0;
    std::size_t clerks_rows = 0;
    for (int i = 0; i < 5; ++i) {
      progs_rows = strategy->Access(0).ValueOrDie().size();
      clerks_rows = strategy->Access(1).ValueOrDie().size();
    }
    const double read_cost = meter.total_ms();

    // Susan (empno 123, a clerk) becomes a programmer in dept 4 (floor 1).
    meter.Reset();
    const Tuple old_tuple = [&] {
      storage::MeteringGuard guard(&disk);
      return emp->Read(emp_rids[123]).ValueOrDie();
    }();
    const Tuple new_tuple({Value(int64_t{123}), Value(kProgrammer),
                           Value(int64_t{4}), Value(int64_t{45000})});
    {
      storage::MeteringGuard guard(&disk);
      (void)emp->UpdateInPlace(emp_rids[123], new_tuple);
    }
    // One update transaction: delete the old value, insert the new one.
    const auto notify_update = [&](const Tuple& before, const Tuple& after) {
      ivm::ChangeBatch changes;
      changes.AddDelete(before);
      changes.AddInsert(after);
      strategy->OnBatch("EMP", changes);
      (void)strategy->OnTransactionEnd();
    };
    notify_update(old_tuple, new_tuple);
    (void)strategy->Access(0);
    const double update_cost = meter.total_ms();

    // Restore for the next strategy so everyone sees the same database.
    {
      storage::MeteringGuard guard(&disk);
      (void)emp->UpdateInPlace(emp_rids[123], old_tuple);
    }
    notify_update(new_tuple, old_tuple);

    table.AddRow({strategy->name(), std::to_string(progs_rows),
                  std::to_string(clerks_rows),
                  TablePrinter::FormatDouble(read_cost, 1),
                  TablePrinter::FormatDouble(update_cost, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nAll strategies return identical answers; the cached\n"
               "strategies answer reads from stored pages while Always\n"
               "Recompute re-runs the join every time.\n";
  return 0;
}
