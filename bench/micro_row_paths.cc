// Micro-benchmark: wall-clock throughput of the three row paths the engine
// runs on every access and commit — predicate screening
// (Conjunction::Matches), delta joins (Executor::JoinDeltas) and Rete token
// propagation (ReteNetwork::OnChanges).
//
// Two kinds of numbers come out:
//   - Deterministic simulated costs (C1 screens, charged milliseconds).
//     These are the golden-gated scalars.  The bench also exits non-zero if
//     the executor's C1 charges for a scan or a delta join differ from a
//     count kept independently with a Matches loop over the same tuples.
//   - Wall-clock throughput (rows/sec per path).  Machine-dependent, so
//     recorded under the report's "timings" key, which tools/bench_diff
//     ignores.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "ivm/delta.h"
#include "relational/predicate.h"
#include "rete/network.h"
#include "sim/workload.h"
#include "storage/disk.h"
#include "util/cost_meter.h"

namespace {

using namespace procsim;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// rows / elapsed, robust to a clock that returns the same tick twice.
double RowsPerSec(double rows, double elapsed) {
  return rows / std::max(elapsed, 1e-9);
}

/// The C1 rule counted by hand: one screen per residual term evaluated on a
/// candidate, at least one.  Probes the join stages with metering off and
/// returns the joined rows; `screens` accumulates the count.
Result<std::vector<rel::Tuple>> CountJoinScreens(
    const sim::Database& db, const rel::ProcedureQuery& query,
    const std::vector<rel::Tuple>& deltas, std::uint64_t* screens) {
  storage::MeteringGuard guard(db.disk.get());
  std::vector<rel::Tuple> out;
  for (const rel::Tuple& delta : deltas) {
    std::vector<rel::Tuple> current{delta};
    for (const rel::JoinStage& stage : query.joins) {
      Result<rel::Relation*> inner = db.catalog->GetRelation(stage.relation);
      if (!inner.ok()) return inner.status();
      std::vector<rel::Tuple> next;
      for (const rel::Tuple& outer : current) {
        Result<std::vector<rel::Tuple>> matches = inner.ValueOrDie()->HashProbe(
            outer.value(stage.probe_column).AsInt64());
        if (!matches.ok()) return matches.status();
        for (const rel::Tuple& candidate : matches.ValueOrDie()) {
          std::size_t evaluated = 0;
          const bool kept = stage.residual.Matches(candidate, &evaluated);
          *screens += std::max<std::size_t>(1, evaluated);
          if (kept) next.push_back(rel::Tuple::Concat(outer, candidate));
        }
      }
      current = std::move(next);
    }
    out.insert(out.end(), current.begin(), current.end());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("micro_row_paths", argc, argv);

  cost::Params params;
  params.N = 1024;
  params.f_R2 = 0.5;
  params.f_R3 = 0.5;
  params.l = 4;
  params.N1 = 4;
  params.N2 = 4;
  params.SF = 0.5;
  params.f = 0.25;

  Result<std::unique_ptr<sim::Database>> built =
      sim::BuildDatabase(params, cost::ProcModel::kModel1, /*seed=*/7);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<sim::Database> db = built.TakeValueOrDie();

  // The shared row population: every R1 tuple, replicated (cyclically, so
  // content is deterministic) up to the scan size.
  std::vector<rel::Tuple> r1;
  {
    Result<rel::Relation*> relation = db->catalog->GetRelation("R1");
    if (!relation.ok()) return 1;
    storage::MeteringGuard guard(db->disk.get());
    Status scan = relation.ValueOrDie()->Scan(
        [&r1](storage::RecordId, const rel::Tuple& tuple) {
          r1.push_back(tuple);
          return true;
        });
    if (!scan.ok()) return 1;
  }
  if (r1.empty()) return 1;

  // ---- Workload 1: predicate scan -------------------------------------
  // A two-term conjunction over the key column (~50% per term), screened
  // tuple by tuple with short-circuit evaluation.
  const std::size_t scan_rows = report.quick() ? 512 : 65536;
  const int scan_passes = report.quick() ? 1 : 40;
  std::vector<rel::Tuple> scan_input;
  scan_input.reserve(scan_rows);
  for (std::size_t i = 0; i < scan_rows; ++i) {
    scan_input.push_back(r1[i % r1.size()]);
  }
  const auto n_keys = static_cast<int64_t>(params.N);
  const rel::Conjunction predicate({
      {sim::R1Columns::kKey, rel::CompareOp::kGe, rel::Value(n_keys / 4)},
      {sim::R1Columns::kKey, rel::CompareOp::kLt, rel::Value(3 * n_keys / 4)},
  });

  std::size_t scan_screens = 0;
  std::size_t scan_selected = 0;
  double scan_rate = 0;
  {
    const double start = Now();
    for (int pass = 0; pass < scan_passes; ++pass) {
      scan_screens = 0;
      scan_selected = 0;
      for (const rel::Tuple& tuple : scan_input) {
        if (predicate.Matches(tuple, &scan_screens)) ++scan_selected;
      }
    }
    scan_rate = RowsPerSec(static_cast<double>(scan_rows) * scan_passes,
                           Now() - start);
  }
  report.AddScalar("scan_rows", static_cast<double>(scan_rows));
  report.AddScalar("scan_screens", static_cast<double>(scan_screens));
  report.AddScalar("scan_selected", static_cast<double>(scan_selected));

  // Cost parity of the executor's scan: the same conjunction as the residual
  // of a whole-relation B-tree range must charge one screen per fetched
  // tuple plus the terms a Matches loop over R1 evaluates.
  {
    rel::ProcedureQuery query;
    query.base = rel::BaseSelection{"R1", 0, n_keys - 1, predicate};
    std::size_t fetched = 0;
    std::size_t evaluated = 0;
    std::size_t selected = 0;
    for (const rel::Tuple& tuple : r1) {
      const int64_t key = tuple.value(sim::R1Columns::kKey).AsInt64();
      if (key < query.base.lo || key > query.base.hi) continue;
      ++fetched;
      if (predicate.Matches(tuple, &evaluated)) ++selected;
    }
    const std::uint64_t screens_before = db->meter.screens();
    Result<std::vector<rel::Tuple>> out = db->executor->Execute(query);
    if (!out.ok()) {
      std::cerr << out.status().ToString() << "\n";
      return 1;
    }
    const std::uint64_t charged = db->meter.screens() - screens_before;
    if (charged != fetched + evaluated ||
        out.ValueOrDie().size() != selected) {
      std::cerr << "scan cost drift: executor charged " << charged
                << " screens for " << out.ValueOrDie().size()
                << " rows; a Matches loop counts " << fetched + evaluated
                << " for " << selected << "\n";
      return 1;
    }
  }

  // ---- Workload 2: delta join -----------------------------------------
  // The IVM propagation primitive: push delta tuples through a P2 join
  // pipeline.
  const proc::DatabaseProcedure* join_proc = nullptr;
  for (const proc::DatabaseProcedure& procedure : db->procedures) {
    if (!procedure.query.joins.empty()) {
      join_proc = &procedure;
      break;
    }
  }
  if (join_proc == nullptr) {
    std::cerr << "no join procedure generated\n";
    return 1;
  }
  const std::size_t delta_rows = report.quick() ? 64 : 8192;
  const int delta_passes = report.quick() ? 1 : 4;
  std::vector<rel::Tuple> deltas;
  deltas.reserve(delta_rows);
  // Deltas must satisfy the base selection (JoinDeltas' contract); recycle
  // the in-range R1 tuples.
  {
    std::vector<rel::Tuple> in_range;
    for (const rel::Tuple& tuple : r1) {
      const int64_t key = tuple.value(sim::R1Columns::kKey).AsInt64();
      if (key >= join_proc->query.base.lo && key <= join_proc->query.base.hi &&
          join_proc->query.base.residual.Matches(tuple)) {
        in_range.push_back(tuple);
      }
    }
    if (in_range.empty()) in_range.push_back(r1.front());
    for (std::size_t i = 0; i < delta_rows; ++i) {
      deltas.push_back(in_range[i % in_range.size()]);
    }
  }

  std::uint64_t delta_screens = 0;
  std::uint64_t delta_reads = 0;
  std::vector<rel::Tuple> joined;
  double delta_rate = 0;
  {
    const double start = Now();
    for (int pass = 0; pass < delta_passes; ++pass) {
      const std::uint64_t screens_before = db->meter.screens();
      const std::uint64_t reads_before = db->meter.disk_reads();
      Result<std::vector<rel::Tuple>> out =
          db->executor->JoinDeltas(join_proc->query, deltas);
      if (!out.ok()) {
        std::cerr << out.status().ToString() << "\n";
        return 1;
      }
      joined = out.TakeValueOrDie();
      delta_screens = db->meter.screens() - screens_before;
      delta_reads = db->meter.disk_reads() - reads_before;
    }
    delta_rate = RowsPerSec(static_cast<double>(delta_rows) * delta_passes,
                            Now() - start);
  }
  {
    std::uint64_t counted_screens = 0;
    Result<std::vector<rel::Tuple>> counted =
        CountJoinScreens(*db, join_proc->query, deltas, &counted_screens);
    if (!counted.ok()) {
      std::cerr << counted.status().ToString() << "\n";
      return 1;
    }
    if (counted_screens != delta_screens || counted.ValueOrDie() != joined) {
      std::cerr << "delta-join cost drift: executor charged " << delta_screens
                << " screens for " << joined.size()
                << " rows; a Matches loop counts " << counted_screens
                << " for " << counted.ValueOrDie().size() << "\n";
      return 1;
    }
  }
  report.AddScalar("delta_join_rows", static_cast<double>(delta_rows));
  report.AddScalar("delta_join_screens", static_cast<double>(delta_screens));
  report.AddScalar("delta_join_reads", static_cast<double>(delta_reads));
  report.AddScalar("delta_join_out_rows", static_cast<double>(joined.size()));

  // ---- Workload 3: Rete token propagation -----------------------------
  // One ordered delete/insert stream (net no-op per pair, so memory state
  // is valid throughout), replayed through one compiled network with one
  // OnChanges call per pass.
  const std::size_t rete_tuples = report.quick() ? 32 : r1.size();
  const int rete_passes = report.quick() ? 1 : 4;
  CostMeter rete_meter;
  rete::ReteNetwork network(db->catalog.get(), &rete_meter,
                            static_cast<std::size_t>(params.S));
  {
    storage::MeteringGuard guard(db->disk.get());
    for (const proc::DatabaseProcedure& procedure : db->procedures) {
      Result<rete::MemoryNode*> added = network.AddProcedure(procedure.query);
      if (!added.ok()) {
        std::cerr << added.status().ToString() << "\n";
        return 1;
      }
    }
  }
  ivm::ChangeBatch rete_stream;
  for (std::size_t i = 0; i < rete_tuples; ++i) {
    rete_stream.AddDelete(r1[i]);
    rete_stream.AddInsert(r1[i]);
  }
  double rete_rate = 0;
  {
    const double start = Now();
    for (int pass = 0; pass < rete_passes; ++pass) {
      Status st = network.OnChanges("R1", rete_stream);
      if (!st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
    }
    rete_rate =
        RowsPerSec(static_cast<double>(rete_stream.size()) * rete_passes,
                   Now() - start);
    storage::MeteringGuard guard(db->disk.get());
    Status valid = network.ValidateState();
    if (!valid.ok()) {
      std::cerr << valid.ToString() << "\n";
      return 1;
    }
  }
  report.AddScalar("rete_tokens",
                   static_cast<double>(rete_stream.size()) * rete_passes);
  report.AddScalar("rete_screens", static_cast<double>(rete_meter.screens()));
  report.AddScalar("rete_charged_ms", rete_meter.total_ms());

  // ---- Report ----------------------------------------------------------
  report.AddTiming("scan_rows_per_sec", scan_rate);
  report.AddTiming("delta_join_rows_per_sec", delta_rate);
  report.AddTiming("rete_tokens_per_sec", rete_rate);
  std::cout << "=== micro_row_paths: row-path throughput ===\n"
            << "scan rows/sec:       " << scan_rate << "\n"
            << "delta-join rows/sec: " << delta_rate << "\n"
            << "rete tokens/sec:     " << rete_rate << "\n";
  return report.Write() ? 0 : 1;
}
