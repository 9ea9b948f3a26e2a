// Referential integrity via database procedures (§1 feature 4 of the
// paper): a stored procedure computes the set of dangling references —
// orders whose customer id has no match — and an Update-Cache-maintained
// copy of it acts as a continuously maintained integrity monitor: after
// every transaction the violation set is current and reading it costs one
// page.
//
// (The dangling-order set is expressed as orders joined to a "tombstoned
// customers" table: when a customer is deactivated, its id is added to
// GONE; orders referencing a GONE customer are violations.)
#include <iostream>
#include <memory>

#include "proc/cache_budget.h"
#include "proc/strategy.h"
#include "relational/catalog.h"
#include "relational/executor.h"

using namespace procsim;
using rel::Column;
using rel::Conjunction;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

int main() {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  rel::Catalog catalog(&disk);
  rel::Executor executor(&catalog, &meter);

  // ORDERS(order_id, customer): clustered by order id.
  rel::Relation::Options orders_options;
  orders_options.tuple_width_bytes = 100;
  orders_options.btree_column = 0;
  rel::Relation* orders =
      catalog
          .CreateRelation("ORDERS",
                          rel::Schema({Column{"order_id", ValueType::kInt64},
                                       Column{"customer", ValueType::kInt64}}),
                          orders_options)
          .ValueOrDie();
  // GONE(customer): hashed set of deactivated customer ids.
  rel::Relation::Options gone_options;
  gone_options.tuple_width_bytes = 100;
  gone_options.hash_column = 0;
  rel::Relation* gone =
      catalog
          .CreateRelation("GONE",
                          rel::Schema({Column{"customer", ValueType::kInt64},
                                       Column{"when", ValueType::kInt64}}),
                          gone_options)
          .ValueOrDie();

  std::vector<storage::RecordId> order_rids;
  {
    storage::MeteringGuard guard(&disk);
    for (int64_t o = 0; o < 200; ++o) {
      order_rids.push_back(
          orders->Insert(Tuple({Value(o), Value(o % 50)})).ValueOrDie());
    }
    // Customers 13 and 27 have been deactivated.
    (void)gone->Insert(Tuple({Value(int64_t{13}), Value(int64_t{100})}));
    (void)gone->Insert(Tuple({Value(int64_t{27}), Value(int64_t{200})}));
  }

  // The integrity view: ORDERS ⋈ GONE on customer = non-empty means broken
  // references.
  proc::DatabaseProcedure violations;
  violations.id = 0;
  violations.name = "DANGLING_ORDERS";
  // The base selection covers the whole order-id domain so future inserts
  // are monitored too.
  violations.query.base =
      rel::BaseSelection{"ORDERS", 0, 1'000'000, Conjunction{}};
  rel::JoinStage stage;
  stage.relation = "GONE";
  stage.probe_column = 1;  // ORDERS.customer
  violations.query.joins.push_back(stage);

  proc::CacheBudget budget(0);  // unlimited: accounts, never evicts
  const std::unique_ptr<proc::Strategy> monitor =
      proc::MakeStrategy(cost::Strategy::kUpdateCacheAvm, &catalog, &executor,
                         &meter, cost::Params{}, &budget);
  (void)monitor->AddProcedure(violations);
  Status st = monitor->Prepare();
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  auto report = [&](const std::string& when) {
    meter.Reset();
    auto value = monitor->Access(0);
    std::cout << when << ": " << value.ValueOrDie().size()
              << " dangling orders (read cost "
              << meter.total_ms() << " ms)\n";
  };

  report("initial state");  // 200/50 = 4 orders each for customers 13, 27

  // Fix the violations: reassign every dangling order to customer 1.
  int fixed = 0;
  for (storage::RecordId rid : order_rids) {
    Tuple row = [&] {
      storage::MeteringGuard guard(&disk);
      return orders->Read(rid).ValueOrDie();
    }();
    const int64_t customer = row.value(1).AsInt64();
    if (customer != 13 && customer != 27) continue;
    const Tuple fixed_row({row.value(0), Value(int64_t{1})});
    {
      storage::MeteringGuard guard(&disk);
      (void)orders->UpdateInPlace(rid, fixed_row);
    }
    ivm::ChangeBatch changes;
    changes.AddDelete(row);
    changes.AddInsert(fixed_row);
    monitor->OnBatch("ORDERS", changes);
    (void)monitor->OnTransactionEnd();
    ++fixed;
  }
  std::cout << "reassigned " << fixed << " orders\n";
  report("after repair");

  // A new order referencing a gone customer shows up immediately.
  {
    Tuple bad_order({Value(int64_t{200}), Value(int64_t{27})});
    {
      storage::MeteringGuard guard(&disk);
      (void)orders->Insert(bad_order);
    }
    ivm::ChangeBatch changes;
    changes.AddInsert(bad_order);
    monitor->OnBatch("ORDERS", changes);
    (void)monitor->OnTransactionEnd();
  }
  report("after inserting a bad order");
  return 0;
}
