#include "obs/metrics.h"

#include <algorithm>
#include <iomanip>
#include <limits>

#include "util/latch.h"

namespace procsim::obs {

/// Canonical catalog of every metric name the tree registers.  The
/// metrics-consistency pass of tools/procsim_lint treats this block as the
/// declared namespace: a name referenced at an instrumentation site but
/// missing here is reported as a typo; a name here that no instrumentation
/// site references is reported as dead.  Keep the list sorted.
// procsim-lint: metric-catalog-begin
[[maybe_unused]] const char* const kMetricCatalog[] = {
    "cache.entries.admitted",
    "cache.entries.reloaded",
    "cache.evictions.bytes",
    "cache.evictions.count",
    "concurrent.latch.acquisitions",
    "concurrent.latch.contended",
    "concurrent.latch.rank_near_miss",
    "concurrent.session.access_cost_ms",
    "exec.batch.rows_selected",
    "exec.batch.rows_submitted",
    "ivm.delta.annihilations",
    "ivm.delta.deletes",
    "ivm.delta.inserts",
    "proc.always_recompute.accesses",
    "proc.always_recompute.recomputes",
    "proc.cache_invalidate.accesses",
    "proc.cache_invalidate.false_invalidations",
    "proc.cache_invalidate.invalid_accesses",
    "proc.cache_invalidate.invalidations",
    "proc.cache_invalidate.recomputes",
    "proc.cache_invalidate.true_invalidations",
    "proc.ilock.broken_found",
    "proc.ilock.locks_set",
    "proc.update_cache_avm.accesses",
    "proc.update_cache_avm.cache_refreshes",
    "proc.update_cache_avm.delta_tuples_applied",
    "proc.update_cache_rvm.accesses",
    "rete.and.derived_tokens",
    "rete.and.probes",
    "rete.memory.inserts",
    "rete.memory.removes",
    "rete.memory.size_tuples",
    "rete.network.tokens_submitted",
    "rete.tconst.passed",
    "rete.tconst.tokens",
    "sim.access.cost_ms",
    "sim.simulator.runs",
    "sim.update.cost_ms",
    "sim.workload.deletes",
    "sim.workload.inserts",
    "sim.workload.tuples_updated",
    "sim.workload.update_transactions",
    "storage.buffer_cache.evictions",
    "storage.buffer_cache.hits",
    "storage.buffer_cache.misses",
    "storage.disk.pages_allocated",
    "storage.disk.pages_freed",
    "storage.disk.reads",
    "storage.disk.writes",
    "txn.commit.latency_ms",
    "txn.lock.deadlocks",
    "txn.lock.grants",
    "txn.lock.upgrades",
    "txn.lock.waits",
    "txn.manager.aborts",
    "txn.manager.begins",
    "txn.manager.commits",
    "txn.manager.group_commits",
    "wal.log.forces",
    "wal.log.truncations",
    "wal.records.appended",
};
// procsim-lint: metric-catalog-end

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  // Bounds must strictly increase for the bucket scan to be well-defined.
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      // Degenerate registration is a programming error; collapse to a
      // single overflow bucket rather than crashing an instrumented path.
      bounds_.clear();
      buckets_ = std::vector<std::atomic<uint64_t>>(1);
      return;
    }
  }
}

void Histogram::Observe(double value) {
  std::size_t bucket = bounds_.size();  // overflow unless a bound catches it
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AddSum(value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    snapshot.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<double> DefaultCostBuckets() {
  return {1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000};
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name) {
  util::MutexLock guard(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::RegisterHistogram(
    const std::string& name, const std::vector<double>& bounds) {
  util::MutexLock guard(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  util::MutexLock guard(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  util::MutexLock guard(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->TakeSnapshot();
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  util::MutexLock guard(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

void WriteDouble(std::ostream& out, double value) {
  // Round-trip precision so goldens survive re-parsing.
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out) const {
  const MetricsSnapshot snapshot = TakeSnapshot();
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": {\"bounds\": [";
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      if (i > 0) out << ", ";
      WriteDouble(out, histogram.bounds[i]);
    }
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << histogram.counts[i];
    }
    out << "], \"count\": " << histogram.count << ", \"sum\": ";
    WriteDouble(out, histogram.sum);
    out << "}";
    first = false;
  }
  out << "\n  }\n}";
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// Binds the latch layer's counter cells to registered metrics.  The latch
/// primitives live in util, below obs in the layer DAG, so they cannot
/// register metrics themselves; this binder closes the loop at static init.
/// It lives in this TU (not its own) so a static archive cannot dead-strip
/// it: any binary that reads metrics references GlobalMetrics and therefore
/// links metrics.o, which carries the binder along.
struct LatchMetricBinder {
  LatchMetricBinder() {
    util::LatchMetricCells cells;
    cells.acquisitions =
        GlobalMetrics().RegisterCounter("concurrent.latch.acquisitions")
            ->cell();
    cells.contended =
        GlobalMetrics().RegisterCounter("concurrent.latch.contended")->cell();
    cells.rank_near_miss =
        GlobalMetrics().RegisterCounter("concurrent.latch.rank_near_miss")
            ->cell();
    util::InstallLatchMetricCells(cells);
  }
};
const LatchMetricBinder g_latch_metric_binder;

}  // namespace

}  // namespace procsim::obs
