// Google-benchmark microbenchmarks for the substrate data structures:
// B-tree insert/search/bulk load, heap scan, hash-index probe, TupleStore
// insert and probe, Rete token propagation, and Yao estimation.  These measure real wall-clock time of
// the implementation (not the simulated 1987 device costs) — useful for
// keeping the simulator itself fast.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "cost/model.h"
#include "ivm/tuple_store.h"
#include "relational/tuple.h"
#include "rete/network.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "storage/btree.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"
#include "util/rng.h"
#include "util/yao.h"

namespace {

using namespace procsim;

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    CostMeter meter;
    storage::SimulatedDisk disk(4000, &meter);
    storage::BTree tree(&disk, 20);
    Rng rng(7);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          tree.Insert(static_cast<int64_t>(rng.Next() % 1000000),
                      storage::RecordId{static_cast<uint32_t>(i), 0}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeBulkLoadSequential(benchmark::State& state) {
  // Ascending keys into an un-metered disk: how BuildDatabase loads R1's
  // clustered index (40 tuples per heap page), so every insert appends to
  // the rightmost leaf and splits leave half-full leaves behind.
  for (auto _ : state) {
    state.PauseTiming();
    storage::SimulatedDisk disk(4000, /*meter=*/nullptr);
    storage::BTree tree(&disk, 20);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(tree.Insert(
          i, storage::RecordId{static_cast<uint32_t>(i / 40),
                               static_cast<uint16_t>(i % 40)}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeBulkLoadSequential)->Arg(10000)->Arg(100000);

void BM_HeapScan(benchmark::State& state) {
  // A full scan of paper-width (S = 100 byte) tuples, decoding each record
  // straight from its page.
  storage::SimulatedDisk disk(4000, /*meter=*/nullptr);
  storage::HeapFile heap(&disk);
  for (int64_t i = 0; i < state.range(0); ++i) {
    const rel::Tuple tuple({rel::Value(i), rel::Value(i % 97),
                            rel::Value(i * 31)});
    (void)heap.Insert(tuple.Serialize(), 100);
  }
  for (auto _ : state) {
    int64_t sum = 0;
    Status scanned = heap.Scan([&](storage::RecordId, storage::ByteView bytes) {
      Result<rel::Tuple> tuple = rel::Tuple::Deserialize(bytes);
      sum += tuple.ValueOrDie().value(0).AsInt64();
      return true;
    });
    benchmark::DoNotOptimize(scanned);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapScan)->Arg(10000);

void BM_BTreeSearch(benchmark::State& state) {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  storage::BTree tree(&disk, 20);
  Rng rng(7);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)tree.Insert(static_cast<int64_t>(rng.Next() % 1000000),
                      storage::RecordId{static_cast<uint32_t>(i), 0});
  }
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Search(key));
    key = (key + 997) % 1000000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSearch)->Arg(10000);

void BM_HashIndexProbe(benchmark::State& state) {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  storage::HashIndex index(&disk, static_cast<std::size_t>(state.range(0)),
                           20);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)index.Insert(i, storage::RecordId{static_cast<uint32_t>(i), 0});
  }
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(key));
    key = (key + 31) % state.range(0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexProbe)->Arg(10000);

// Paper-width rows (S = 100) of three int64 columns; column 1 repeats
// every `distinct` rows.
std::vector<rel::Tuple> StoreRows(int64_t n, int64_t distinct) {
  std::vector<rel::Tuple> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(rel::Tuple(
        {rel::Value(i), rel::Value(i % distinct), rel::Value(i * 31)}));
  }
  return rows;
}

void BM_TupleStoreInsertMany(benchmark::State& state) {
  // Populating a Rete memory indexed on two columns, un-metered as at
  // build time: range(1) = 1 inserts the rows as one batch, 0 one Insert
  // per row (the row path).
  const std::vector<rel::Tuple> rows = StoreRows(state.range(0), 100);
  const bool batched = state.range(1) != 0;
  storage::SimulatedDisk disk(4000, /*meter=*/nullptr);
  std::optional<ivm::TupleStore> store;
  for (auto _ : state) {
    state.PauseTiming();
    store.reset();
    store.emplace(&disk, 100);
    store->EnsureProbeIndex(1);
    state.ResumeTiming();
    if (batched) {
      benchmark::DoNotOptimize(store->InsertMany(rows));
    } else {
      for (const rel::Tuple& row : rows) {
        benchmark::DoNotOptimize(store->Insert(row));
      }
    }
  }
  store.reset();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TupleStoreInsertMany)->Args({10000, 0})->Args({10000, 1});

void BM_TupleStoreProbeEqual(benchmark::State& state) {
  // A metered and-node probe of 10000 stored rows on column 1, where each
  // key matches range(0) rows.
  const int64_t n = 10000;
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  ivm::TupleStore store(&disk, 100);
  store.EnsureProbeIndex(1);
  {
    storage::MeteringGuard unmetered(&disk);
    (void)store.InsertMany(StoreRows(n, n / state.range(0)));
  }
  int64_t key = 0;
  int64_t matches = 0;
  for (auto _ : state) {
    Status probed = store.ProbeEqual(1, key, [&](rel::Tuple&& tuple) {
      benchmark::DoNotOptimize(tuple);
      ++matches;
      return Status::OK();
    });
    benchmark::DoNotOptimize(probed);
    key = (key + 7) % (n / state.range(0));
  }
  state.SetItemsProcessed(matches);
}
BENCHMARK(BM_TupleStoreProbeEqual)->Arg(1)->Arg(10);

void BM_YaoEstimate(benchmark::State& state) {
  double n = 100000, m = 2500, k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(YaoEstimate(n, m, k));
    k = k < 5000 ? k + 1 : 1;
  }
}
BENCHMARK(BM_YaoEstimate);

void BM_SimulatedWorkload(benchmark::State& state) {
  // Wall-clock cost of an entire small simulation run (AVM, model 1).
  for (auto _ : state) {
    sim::Simulator::Options options;
    options.params.N = 5000;
    options.params.N1 = 10;
    options.params.N2 = 10;
    options.params.k = 10;
    options.params.q = 10;
    options.params.l = 10;
    options.params.f = 0.002;
    options.seed = 99;
    auto result =
        sim::Simulator::Run(cost::Strategy::kUpdateCacheAvm, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SimulatedWorkload)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
