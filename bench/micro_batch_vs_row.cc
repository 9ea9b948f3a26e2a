// Micro-benchmark: vectorized batch execution vs row-at-a-time on the two
// hot paths the columnar substrate rebuilt — predicate scans
// (Conjunction::EvalBatch) and delta joins (Executor::JoinDeltas on a
// TupleBatch) — at batch sizes 1, 64 and 1024, plus Rete token propagation
// (ReteNetwork::OnChanges), which has only a per-token path to time.
//
// Two kinds of numbers come out:
//   - Deterministic simulated costs (C1 screens, charged milliseconds).
//     These MUST be identical across every batch size and the row path —
//     batching is a wall-clock optimization, never a cost-model change —
//     and the bench exits non-zero if they drift.  They are the
//     golden-gated scalars.
//   - Wall-clock throughput (rows/sec per configuration).  Machine-
//     dependent, so recorded under the report's "timings" key, which
//     tools/bench_diff ignores.  In full mode the bench additionally
//     asserts the scan path at batch 1024 sustains at least 2x the
//     rows/sec of batch 1 — the speedup the vectorization exists to buy.
//     The speedup over the row path (scan_speedup_b1024_vs_row) is
//     reported but not gated.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "relational/predicate.h"
#include "relational/tuple_batch.h"
#include "ivm/delta.h"
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

/// Chunks `rows` into TupleBatches of `batch_size` (the last one ragged).
std::vector<rel::TupleBatch> Chunk(const std::vector<rel::Tuple>& rows,
                                   std::size_t batch_size) {
  std::vector<rel::TupleBatch> batches;
  for (std::size_t begin = 0; begin < rows.size(); begin += batch_size) {
    const std::size_t end = std::min(rows.size(), begin + batch_size);
    rel::TupleBatch batch;
    batch.Reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) batch.AppendRow(rows[i]);
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct PathResult {
  std::size_t screens = 0;    ///< C1 evaluations (exact-match gated)
  std::size_t selected = 0;   ///< surviving rows (exact-match gated)
  double rows_per_sec = 0;    ///< wall clock (timings only)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace procsim;
  bench::BenchReport report("micro_batch_vs_row", argc, argv);

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

  const std::vector<std::size_t> batch_sizes = {1, 64, 1024};

  // ---- Workload 1: predicate scan -------------------------------------
  // A two-term conjunction over the key column (~50% per term), evaluated
  // row-at-a-time (Matches) and batch-at-a-time (EvalBatch) over the same
  // rows; batching changes evaluation order from row-major to column-major
  // but never the evaluation COUNT (see SelectionVector's doc).
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

  PathResult scan_row;
  {
    const double start = Now();
    std::size_t screens = 0;
    std::size_t selected = 0;
    for (int pass = 0; pass < scan_passes; ++pass) {
      screens = 0;
      selected = 0;
      for (const rel::Tuple& tuple : scan_input) {
        if (predicate.Matches(tuple, &screens)) ++selected;
      }
    }
    scan_row.screens = screens;
    scan_row.selected = selected;
    scan_row.rows_per_sec = RowsPerSec(
        static_cast<double>(scan_rows) * scan_passes, Now() - start);
  }

  std::vector<PathResult> scan_batch;
  for (const std::size_t batch_size : batch_sizes) {
    const std::vector<rel::TupleBatch> batches = Chunk(scan_input, batch_size);
    PathResult result;
    rel::SelectionVector selection;
    const double start = Now();
    for (int pass = 0; pass < scan_passes; ++pass) {
      result.screens = 0;
      result.selected = 0;
      for (const rel::TupleBatch& batch : batches) {
        selection = rel::AllRows(batch.num_rows());
        predicate.EvalBatch(batch, &selection, &result.screens);
        result.selected += selection.size();
      }
    }
    result.rows_per_sec = RowsPerSec(
        static_cast<double>(scan_rows) * scan_passes, Now() - start);
    if (result.screens != scan_row.screens ||
        result.selected != scan_row.selected) {
      std::cerr << "scan cost drift at batch " << batch_size << ": "
                << result.screens << "/" << result.selected
                << " screens/selected vs row path " << scan_row.screens << "/"
                << scan_row.selected << "\n";
      return 1;
    }
    scan_batch.push_back(result);
  }
  report.AddScalar("scan_rows", static_cast<double>(scan_rows));
  report.AddScalar("scan_screens", static_cast<double>(scan_row.screens));
  report.AddScalar("scan_selected", static_cast<double>(scan_row.selected));

  // ---- Workload 2: delta join -----------------------------------------
  // The IVM propagation primitive: push delta tuples through a P2 join
  // pipeline in chunks of each batch size.  The charged costs (screens and
  // I/O) are a per-row sum, so any chunking must charge exactly the same.
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
  std::vector<rel::Tuple> delta_result;
  bool first_config = true;
  for (std::size_t config = 0; config < batch_sizes.size(); ++config) {
    const std::size_t batch_size = batch_sizes[config];
    const std::vector<rel::TupleBatch> batches = Chunk(deltas, batch_size);
    std::uint64_t screens = 0;
    std::uint64_t reads = 0;
    std::vector<rel::Tuple> joined;
    const double start = Now();
    for (int pass = 0; pass < delta_passes; ++pass) {
      joined.clear();
      const std::uint64_t screens_before = db->meter.screens();
      const std::uint64_t reads_before = db->meter.disk_reads();
      for (const rel::TupleBatch& batch : batches) {
        Result<std::vector<rel::Tuple>> out =
            db->executor->JoinDeltas(join_proc->query, batch);
        if (!out.ok()) {
          std::cerr << out.status().ToString() << "\n";
          return 1;
        }
        std::vector<rel::Tuple> rows = out.TakeValueOrDie();
        joined.insert(joined.end(), rows.begin(), rows.end());
      }
      screens = db->meter.screens() - screens_before;
      reads = db->meter.disk_reads() - reads_before;
    }
    const double rows_per_sec = RowsPerSec(
        static_cast<double>(delta_rows) * delta_passes, Now() - start);
    if (first_config) {
      delta_screens = screens;
      delta_reads = reads;
      delta_result = joined;
      first_config = false;
    } else if (screens != delta_screens || reads != delta_reads ||
               joined != delta_result) {
      std::cerr << "delta-join drift at batch " << batch_size << ": "
                << screens << " screens / " << reads << " reads vs "
                << delta_screens << " / " << delta_reads << "\n";
      return 1;
    }
    report.AddTiming("delta_join_rows_per_sec_b" + std::to_string(batch_size),
                     rows_per_sec);
  }
  report.AddScalar("delta_join_rows", static_cast<double>(delta_rows));
  report.AddScalar("delta_join_screens", static_cast<double>(delta_screens));
  report.AddScalar("delta_join_reads", static_cast<double>(delta_reads));
  report.AddScalar("delta_join_out_rows",
                   static_cast<double>(delta_result.size()));

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
  {
    const double start = Now();
    for (int pass = 0; pass < rete_passes; ++pass) {
      Status st = network.OnChanges("R1", rete_stream);
      if (!st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
    }
    report.AddTiming(
        "rete_tokens_per_sec",
        RowsPerSec(static_cast<double>(rete_stream.size()) * rete_passes,
                   Now() - start));
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
  std::cout << "=== micro_batch_vs_row: batch execution vs row-at-a-time "
               "===\n";
  std::cout << "scan rows/sec:   row " << scan_row.rows_per_sec;
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    std::cout << "  b" << batch_sizes[i] << " " << scan_batch[i].rows_per_sec;
  }
  std::cout << "\n";
  report.AddTiming("scan_rows_per_sec_row", scan_row.rows_per_sec);
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    report.AddTiming("scan_rows_per_sec_b" + std::to_string(batch_sizes[i]),
                     scan_batch[i].rows_per_sec);
  }
  const double scan_speedup =
      scan_batch.back().rows_per_sec / std::max(scan_batch.front().rows_per_sec, 1e-9);
  report.AddTiming("scan_speedup_b1024_vs_b1", scan_speedup);
  std::cout << "scan speedup b1024 vs b1: " << scan_speedup << "x\n";
  const double scan_speedup_vs_row =
      scan_batch.back().rows_per_sec / std::max(scan_row.rows_per_sec, 1e-9);
  report.AddTiming("scan_speedup_b1024_vs_row", scan_speedup_vs_row);
  std::cout << "scan speedup b1024 vs row: " << scan_speedup_vs_row
            << "x (reported, not gated)\n";
  if (!report.quick() && scan_speedup < 2.0) {
    std::cerr << "vectorized scan speedup " << scan_speedup
              << "x below the 2x floor\n";
    return 1;
  }
  return report.Write() ? 0 : 1;
}
