#include "replay.h"

#include <iostream>
#include <utility>

#include "ivm/delta.h"
#include "proc/cache_invalidate.h"

namespace perfbench {

namespace sim = procsim::sim;
using procsim::Result;
using procsim::Status;

const StrategySpans kStrategySpans[6] = {
    {"AlwaysRecompute", "relational.ar_access", "proc.ar_notify"},
    {"CacheInvalidate", "proc.ci_access", "proc.ci_notify"},
    {"UpdateCache/AVM", "ivm.avm_access", "ivm.avm_notify"},
    {"UpdateCache/RVM", "rete.rvm_access", "rete.rvm_notify"},
    {"Hybrid", "proc.hybrid_access", "proc.hybrid_notify"},
    {"UpdateCache/Adaptive", "proc.adaptive_access", "proc.adaptive_notify"},
};

bool LayerReplay::Build(const procsim::txn::TxnEngine::Options& options,
                        SpanLog* spans) {
  options_ = options;
  {
    ScopedSpan span(spans, "sim.build");
    Result<std::unique_ptr<sim::Database>> built =
        sim::BuildDatabase(options.params, options.model, options.seed);
    if (!built.ok()) {
      std::cerr << "build failed: " << built.status().ToString() << "\n";
      return false;
    }
    db_ = built.TakeValueOrDie();
  }
  {
    ScopedSpan span(spans, "proc.prepare");
    Result<sim::StrategySet> made = sim::MakeAllStrategies(
        db_.get(), options.params, options.model, options.config);
    if (!made.ok()) {
      std::cerr << "prepare failed: " << made.status().ToString() << "\n";
      return false;
    }
    strategies_ = made.TakeValueOrDie();
  }
  for (const std::unique_ptr<procsim::proc::Strategy>& strategy :
       strategies_.all) {
    const StrategySpans* found = nullptr;
    for (const StrategySpans& entry : kStrategySpans) {
      if (strategy->name() == entry.strategy) found = &entry;
    }
    if (found == nullptr) {
      std::cerr << "no span names for strategy " << strategy->name() << "\n";
      return false;
    }
    names_.push_back(found);
  }
  meter_start_ = MeterReading::Of(db_->meter);
  ci_reloads_start_ = strategies_.cache_invalidate->eviction_reload_count();
  return true;
}

void LayerReplay::Step(const sim::WorkloadOp& op, uint64_t index,
                       SpanLog* spans, Checks* checks) {
  if (op.kind == sim::WorkloadOp::Kind::kAccess) {
    ++accesses_;
    const auto id = static_cast<procsim::proc::ProcId>(
        op.value % db_->procedures.size());
    std::string expected;
    for (std::size_t s = 0; s < strategies_.all.size(); ++s) {
      const uint64_t screens = db_->meter.screens();
      Result<std::vector<procsim::rel::Tuple>> answer =
          std::vector<procsim::rel::Tuple>{};
      {
        ScopedSpan span(spans, names_[s]->access, index);
        answer = strategies_.all[s]->Access(id);
      }
      if (s == 0) ar_screens_ += db_->meter.screens() - screens;
      if (!answer.ok()) {
        checks->ExpectOk(answer.status(), "replayed access");
        continue;
      }
      std::string digest;
      {
        ScopedSpan span(spans, "harness.canonical", index);
        digest = sim::CanonicalResultBytes(answer.ValueOrDie());
      }
      if (s == 0) {
        expected = std::move(digest);
      } else if (digest != expected) {
        checks->Expect(false, std::string(names_[s]->strategy) +
                                  " diverged in the replay at op " +
                                  std::to_string(index));
      }
    }
    return;
  }
  ++commits_;
  Result<sim::MutationResult> mutation = sim::MutationResult{};
  {
    ScopedSpan span(spans, "storage.apply", index);
    mutation = sim::ApplyMutationOp(db_.get(), op, options_.mix, nullptr);
  }
  if (!mutation.ok()) {
    checks->ExpectOk(mutation.status(), "replayed mutation");
    return;
  }
  const sim::MutationResult& applied = mutation.ValueOrDie();
  if (!applied.applied || !applied.notify) return;
  procsim::ivm::ChangeBatch changes;
  {
    ScopedSpan span(spans, "ivm.change_batch", index);
    for (const auto& [old_tuple, new_tuple] : applied.changes) {
      if (old_tuple.has_value()) changes.AddDelete(*old_tuple);
      if (new_tuple.has_value()) changes.AddInsert(*new_tuple);
    }
  }
  if (!changes.empty()) {
    for (std::size_t s = 0; s < strategies_.all.size(); ++s) {
      ScopedSpan span(spans, names_[s]->notify, index);
      strategies_.all[s]->OnBatch("R1", changes);
    }
  }
  for (std::size_t s = 0; s < strategies_.all.size(); ++s) {
    Status status;
    {
      ScopedSpan span(spans, names_[s]->notify, index);
      status = strategies_.all[s]->OnTransactionEnd();
    }
    if (!status.ok()) checks->ExpectOk(status, "replayed transaction end");
  }
}

MeterReading LayerReplay::meter() const {
  return MeterReading::Of(db_->meter) - meter_start_;
}

std::string LayerReplay::Digest() const {
  return procsim::txn::OracleStateDigest(db_.get());
}

uint64_t LayerReplay::ci_reloads() const {
  return strategies_.cache_invalidate->eviction_reload_count() -
         ci_reloads_start_;
}

CounterSplit::CounterSplit() {
  procsim::obs::MetricsRegistry& registry = procsim::obs::GlobalMetrics();
  for (const auto& [name, value] : registry.TakeSnapshot().counters) {
    (void)value;
    names_.push_back(name);
    cells_.push_back(registry.FindCounter(name));
  }
  last_.assign(cells_.size(), 0);
  sides_[kEngine].assign(cells_.size(), 0);
  sides_[kReplay].assign(cells_.size(), 0);
  Charge(kNone);
}

void CounterSplit::Charge(Side side) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const uint64_t now = cells_[i]->value();
    if (side != kNone) sides_[side][i] += now - last_[i];
    last_[i] = now;
  }
}

uint64_t CounterSplit::Count(Side side, const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return sides_[side][i];
  }
  return 0;
}

}  // namespace perfbench
