// Observability-layer tests: counter semantics, histogram bucketing,
// registry snapshot/reset round-trips, and —
// decisive under the tsan preset (matched by the ci.sh 'Obs' regex) —
// many-thread hammering of the lock-free read paths.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace procsim::obs {
namespace {

TEST(ObsCounterTest, StartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("test.counter.basic");
  EXPECT_EQ(counter->value(), 0u);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->value(), 42u);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
}

TEST(ObsCounterTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter* first = registry.RegisterCounter("test.counter.same");
  Counter* second = registry.RegisterCounter("test.counter.same");
  EXPECT_EQ(first, second);
  first->Add(7);
  EXPECT_EQ(second->value(), 7u);
}

TEST(ObsCounterTest, FindCounterSeesRegistrationsOnly) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("test.counter.missing"), nullptr);
  Counter* counter = registry.RegisterCounter("test.counter.present");
  counter->Add(3);
  const Counter* found = registry.FindCounter("test.counter.present");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 3u);
}

TEST(ObsHistogramTest, BucketBoundariesAreInclusive) {
  // bucket i counts value <= bounds[i]; one overflow bucket at the end.
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0
  histogram.Observe(1.0);    // bucket 0 (inclusive upper bound)
  histogram.Observe(1.0001); // bucket 1
  histogram.Observe(10.0);   // bucket 1
  histogram.Observe(100.0);  // bucket 2
  histogram.Observe(100.5);  // overflow
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5);
}

TEST(ObsHistogramTest, DefaultCostBucketsAreStrictlyIncreasing) {
  const std::vector<double> bounds = DefaultCostBuckets();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ObsHistogramTest, ResetClearsCountsButKeepsBounds) {
  Histogram histogram({5.0, 50.0});
  histogram.Observe(3);
  histogram.Observe(300);
  histogram.Reset();
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  ASSERT_EQ(snap.bounds.size(), 2u);
  for (uint64_t c : snap.counts) EXPECT_EQ(c, 0u);
}

TEST(ObsRegistryTest, SnapshotResetRoundTrip) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("test.roundtrip.counter");
  Histogram* histogram =
      registry.RegisterHistogram("test.roundtrip.histogram", {1.0, 2.0});
  counter->Add(5);
  histogram->Observe(1.5);

  MetricsSnapshot before = registry.TakeSnapshot();
  EXPECT_EQ(before.counters.at("test.roundtrip.counter"), 5u);
  EXPECT_EQ(before.histograms.at("test.roundtrip.histogram").count, 1u);

  registry.ResetAll();
  MetricsSnapshot after = registry.TakeSnapshot();
  // Registrations survive a reset; values return to zero.
  EXPECT_EQ(after.counters.at("test.roundtrip.counter"), 0u);
  EXPECT_EQ(after.histograms.at("test.roundtrip.histogram").count, 0u);
  // And the same pointers keep working.
  counter->Add(2);
  EXPECT_EQ(registry.TakeSnapshot().counters.at("test.roundtrip.counter"),
            2u);
}

TEST(ObsRegistryTest, WriteJsonContainsEveryMetric) {
  MetricsRegistry registry;
  registry.RegisterCounter("test.json.counter")->Add(9);
  registry.RegisterHistogram("test.json.histogram", {1.0})->Observe(0.5);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"test.json.counter\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.histogram\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// The hot-path contract: N threads incrementing concurrently lose no
// updates, and concurrent snapshots tear nothing structurally.  Run under
// the tsan preset this is the data-race gate for the whole obs layer.
TEST(ObsConcurrencyTest, ConcurrentCounterIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("test.concurrent.counter");
  Histogram* histogram = registry.RegisterHistogram(
      "test.concurrent.histogram", DefaultCostBuckets());
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter->Add();
        histogram->Observe(static_cast<double>((t * 31 + i) % 2000));
      }
    });
  }
  // One reader thread snapshotting while writers run: must be race-free
  // and always observe internally consistent sizes.
  threads.emplace_back([&]() {
    for (int i = 0; i < 200; ++i) {
      MetricsSnapshot snap = registry.TakeSnapshot();
      const auto& hist = snap.histograms.at("test.concurrent.histogram");
      ASSERT_EQ(hist.counts.size(), hist.bounds.size() + 1);
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
  EXPECT_EQ(histogram->count(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(ObsConcurrencyTest, ConcurrentRegistrationReturnsOnePointer) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> pointers(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      pointers[t] = registry.RegisterCounter("test.concurrent.register");
      pointers[t]->Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(pointers[t], pointers[0]);
  EXPECT_EQ(pointers[0]->value(), static_cast<uint64_t>(kThreads));
}

// End-to-end wiring: driving the actual simulator must move the counters
// the instrumented subsystems registered at static init.  (Exercising the
// stack — not just linking it — is what guarantees the objects carrying
// the registrations are in the binary at all.)
TEST(ObsGlobalWiringTest, SimulationRunMovesCoreCounters) {
  cost::Params params;
  params.N = 4000;
  params.N1 = 4;
  params.N2 = 4;
  params.f = 0.005;
  params.q = 12;
  params.SetUpdateProbability(0.5);
  for (cost::Strategy strategy :
       {cost::Strategy::kAlwaysRecompute, cost::Strategy::kCacheInvalidate,
        cost::Strategy::kUpdateCacheRvm}) {
    sim::Simulator::Options options;
    options.params = params;
    options.seed = 11;
    Result<sim::SimulationResult> run = sim::Simulator::Run(strategy, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  for (const char* name : {
           "storage.disk.reads",
           "storage.disk.writes",
           "proc.ilock.locks_set",
           "proc.cache_invalidate.accesses",
           "proc.always_recompute.accesses",
           "rete.network.tokens_submitted",
           "sim.workload.tuples_updated",
           "sim.simulator.runs",
           "concurrent.latch.acquisitions",
       }) {
    const Counter* counter = GlobalMetrics().FindCounter(name);
    ASSERT_NE(counter, nullptr) << name << " is not registered";
    EXPECT_GT(counter->value(), 0u) << name << " never incremented";
  }
  // Registered by linked-in subsystems even when the workload leaves them
  // idle (no buffer cache configured in this run).
  EXPECT_NE(GlobalMetrics().FindCounter("storage.buffer_cache.hits"),
            nullptr);
}

}  // namespace
}  // namespace procsim::obs
