// Complex objects with shared subobjects (§1 feature 3 of the paper):
// screen forms assembled from widgets, where many forms share the same
// decoration set (trim, labels, icons).  Each form is a database procedure
// joining its widget set to the widget catalog; shared decoration
// subqueries become shared Rete subexpressions, so RVM maintains them once
// for the whole form population.
#include <iostream>
#include <memory>

#include "proc/cache_budget.h"
#include "proc/update_cache_rvm.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace procsim;
using rel::Column;
using rel::Conjunction;
using rel::PredicateTerm;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

int main() {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  rel::Catalog catalog(&disk);
  rel::Executor executor(&catalog, &meter);
  Rng rng(2026);

  // WIDGET(id, form_lo..form_hi via id ranges, kind): the placements table,
  // clustered by widget id so a form's widgets are one key range.
  rel::Relation::Options widget_options;
  widget_options.tuple_width_bytes = 100;
  widget_options.btree_column = 0;
  rel::Relation* widgets =
      catalog
          .CreateRelation("WIDGET",
                          rel::Schema({Column{"id", ValueType::kInt64},
                                       Column{"style", ValueType::kInt64},
                                       Column{"x", ValueType::kInt64},
                                       Column{"y", ValueType::kInt64}}),
                          widget_options)
          .ValueOrDie();
  // STYLE(style_id, glyph): the shared widget catalog, hashed on style_id.
  rel::Relation::Options style_options;
  style_options.tuple_width_bytes = 100;
  style_options.hash_column = 0;
  rel::Relation* styles =
      catalog
          .CreateRelation("STYLE",
                          rel::Schema({Column{"style_id", ValueType::kInt64},
                                       Column{"glyph", ValueType::kInt64}}),
                          style_options)
          .ValueOrDie();
  // GLYPH(glyph_id, bitmap): the icon store styles point into, hashed on
  // glyph_id.  Rendering a form is a 3-way join WIDGET >< STYLE >< GLYPH —
  // the paper's model-2 shape, where the Rete network's precomputed
  // STYLE><GLYPH beta-memory lets RVM do one join per changed widget while
  // AVM must do two.
  rel::Relation::Options glyph_options;
  glyph_options.tuple_width_bytes = 100;
  glyph_options.hash_column = 0;
  rel::Relation* glyphs =
      catalog
          .CreateRelation("GLYPH",
                          rel::Schema({Column{"glyph_id", ValueType::kInt64},
                                       Column{"bitmap", ValueType::kInt64}}),
                          glyph_options)
          .ValueOrDie();

  constexpr int64_t kForms = 12;
  constexpr int64_t kWidgetsPerForm = 25;
  std::vector<storage::RecordId> widget_rids;
  {
    storage::MeteringGuard guard(&disk);
    for (int64_t w = 0; w < kForms * kWidgetsPerForm; ++w) {
      widget_rids.push_back(
          widgets
              ->Insert(Tuple({Value(w),
                              Value(static_cast<int64_t>(rng.Uniform(40))),
                              Value(static_cast<int64_t>(rng.Uniform(1024))),
                              Value(static_cast<int64_t>(rng.Uniform(768)))}))
              .ValueOrDie());
    }
    for (int64_t s = 0; s < 40; ++s) {
      (void)styles->Insert(Tuple({Value(s), Value(s % 16)}));
    }
    for (int64_t g = 0; g < 16; ++g) {
      (void)glyphs->Insert(Tuple({Value(g), Value(g * 1000)}));
    }
  }

  // Each form is a procedure: its widget range joined to the style catalog.
  // Every THIRD form reuses form 0's decoration range verbatim — the shared
  // trim/labels/icons subobject.
  auto form_query = [&](int64_t form) {
    rel::ProcedureQuery query;
    const int64_t base_form = (form % 3 == 0) ? 0 : form;
    query.base = rel::BaseSelection{
        "WIDGET", base_form * kWidgetsPerForm,
        base_form * kWidgetsPerForm + kWidgetsPerForm - 1, Conjunction{}};
    rel::JoinStage style_stage;
    style_stage.relation = "STYLE";
    style_stage.probe_column = 1;  // WIDGET.style
    query.joins.push_back(style_stage);
    rel::JoinStage glyph_stage;
    glyph_stage.relation = "GLYPH";
    glyph_stage.probe_column = 5;  // STYLE.glyph within WIDGET(4) ++ STYLE(2)
    query.joins.push_back(glyph_stage);
    return query;
  };

  TablePrinter table({"maintainer", "per-update maintenance (ms)",
                      "nodes (t-const/alpha/and/beta)", "shared hits"});
  for (const bool use_rvm : {false, true}) {
    proc::CacheBudget budget(0);  // unlimited: accounts, never evicts
    const std::unique_ptr<proc::Strategy> strategy = proc::MakeStrategy(
        use_rvm ? cost::Strategy::kUpdateCacheRvm
                : cost::Strategy::kUpdateCacheAvm,
        &catalog, &executor, &meter, cost::Params{}, &budget);
    for (int64_t form = 0; form < kForms; ++form) {
      (void)strategy->AddProcedure(proc::DatabaseProcedure{
          static_cast<proc::ProcId>(form), "FORM_" + std::to_string(form),
          form_query(form)});
    }
    Status st = strategy->Prepare();
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }

    // A designer retouches 50 widgets; measure maintenance cost.
    meter.Reset();
    Rng workload(7);
    for (int i = 0; i < 50; ++i) {
      const std::size_t pick = workload.Uniform(widget_rids.size());
      Tuple old_tuple;
      const Tuple new_tuple(
          {Value(static_cast<int64_t>(pick)),
           Value(static_cast<int64_t>(workload.Uniform(40))),
           Value(static_cast<int64_t>(workload.Uniform(1024))),
           Value(static_cast<int64_t>(workload.Uniform(768)))});
      {
        storage::MeteringGuard guard(&disk);
        old_tuple = widgets->Read(widget_rids[pick]).ValueOrDie();
        (void)widgets->UpdateInPlace(widget_rids[pick], new_tuple);
      }
      ivm::ChangeBatch changes;
      changes.AddDelete(old_tuple);
      changes.AddInsert(new_tuple);
      strategy->OnBatch("WIDGET", changes);
      (void)strategy->OnTransactionEnd();
    }
    const double maintenance = meter.total_ms();

    std::string nodes = "-";
    std::string hits = "-";
    if (use_rvm) {
      const auto& stats =
          static_cast<proc::UpdateCacheRvmStrategy*>(strategy.get())
              ->network_stats();
      nodes = std::to_string(stats.tconst_nodes) + "/" +
              std::to_string(stats.alpha_memories) + "/" +
              std::to_string(stats.and_nodes) + "/" +
              std::to_string(stats.beta_memories);
      hits = std::to_string(stats.shared_subexpression_hits);
    }
    table.AddRow({strategy->name(), TablePrinter::FormatDouble(maintenance, 1),
                  nodes, hits});
  }
  table.Print(std::cout);
  std::cout << "\nA third of the forms reuse form 0's decoration widgets and\n"
               "every form shares the STYLE-to-GLYPH catalog join, so the\n"
               "Rete network compiles those subexpressions once and performs\n"
               "a single probe per changed widget; AVM re-joins through both\n"
               "catalogs for every form independently.\n";
  return 0;
}
