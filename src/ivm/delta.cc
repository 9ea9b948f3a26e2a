#include "ivm/delta.h"

#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace procsim::ivm {

namespace {
obs::Counter* const g_inserts =
    obs::GlobalMetrics().RegisterCounter("ivm.delta.inserts");
obs::Counter* const g_deletes =
    obs::GlobalMetrics().RegisterCounter("ivm.delta.deletes");
// An insert and a delete of the same tuple cancelling in the pending set —
// the work net-delta maintenance avoids ever sending downstream.
obs::Counter* const g_annihilations =
    obs::GlobalMetrics().RegisterCounter("ivm.delta.annihilations");
}  // namespace

void DeltaSet::Bump(const rel::Tuple& tuple, long delta) {
  (delta > 0 ? g_inserts : g_deletes)->Add();
  auto [it, inserted] = counts_.try_emplace(tuple, 0);
  it->second += delta;
  if (it->second == 0) {
    counts_.erase(it);
    if (!inserted) g_annihilations->Add();
  }
}

bool DeltaSet::empty() const { return counts_.empty(); }

void DeltaSet::NetRows(std::vector<rel::Tuple>* inserts,
                       std::vector<rel::Tuple>* deletes) const {
  std::size_t insert_total = 0;
  std::size_t delete_total = 0;
  for (const auto& [tuple, count] : counts_) {
    if (count > 0) {
      insert_total += static_cast<std::size_t>(count);
    } else {
      delete_total += static_cast<std::size_t>(-count);
    }
  }
  if (inserts != nullptr) inserts->reserve(inserts->size() + insert_total);
  if (deletes != nullptr) deletes->reserve(deletes->size() + delete_total);
  for (const auto& [tuple, count] : counts_) {
    if (count > 0 && inserts != nullptr) {
      for (long i = 0; i < count; ++i) inserts->push_back(tuple);
    } else if (count < 0 && deletes != nullptr) {
      for (long i = 0; i > count; --i) deletes->push_back(tuple);
    }
  }
}

std::size_t DeltaSet::TotalNetSize() const {
  std::size_t total = 0;
  for (const auto& [tuple, count] : counts_) {
    total += static_cast<std::size_t>(std::labs(count));
  }
  return total;
}

std::string DeltaSet::ToString() const {
  std::ostringstream out;
  out << "DeltaSet{";
  bool first = true;
  for (const auto& [tuple, count] : counts_) {
    if (!first) out << ", ";
    first = false;
    out << (count > 0 ? "+" : "") << count << " " << tuple.ToString();
  }
  out << "}";
  return out.str();
}

}  // namespace procsim::ivm
