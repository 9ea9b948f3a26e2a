#include "ops.h"

#include <utility>

namespace perfbench {
namespace {

using procsim::cost::ProcModel;

// Figure-2 database, l = 25; mixes per 20-op deck.
const WorkloadSpec kWorkloads[] = {
    {"m1_read_mostly", ProcModel::kModel1, 2, 0, 0, 0},     // 90% accesses
    {"m1_read_evicting", ProcModel::kModel1, 2, 0, 0, 10},  // 90% accesses
    {"m2_write_heavy", ProcModel::kModel2, 12, 1, 1, 0},    // 30% accesses
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

procsim::txn::TxnEngine::Options EngineOptions(const WorkloadSpec& spec) {
  procsim::txn::TxnEngine::Options options;
  options.model = spec.model;
  options.seed = kDatabaseSeed;
  options.config.group_commit_size = 1;
  options.mix.update_batch = static_cast<std::size_t>(options.params.l);
  return options;
}

OpGenerator::OpGenerator(const WorkloadSpec& spec,
                         std::size_t procedure_count, double z, uint64_t seed)
    : locality_(procedure_count, z), rng_(seed) {
  std::size_t card = 0;
  for (const auto& [kind, count] :
       {std::pair{Kind::kUpdate, spec.updates},
        std::pair{Kind::kInsert, spec.inserts},
        std::pair{Kind::kDelete, spec.deletes}}) {
    for (std::size_t i = 0; i < count; ++i) deck_[card++] = kind;
  }
  for (; card < kDeckSize; ++card) deck_[card] = Kind::kAccess;
}

procsim::sim::WorkloadOp OpGenerator::Next() {
  if (dealt_ == kDeckSize) {
    for (std::size_t i = kDeckSize - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(deck_[i], deck_[rng_.Uniform(i + 1)]);
    }
    dealt_ = 0;
  }
  const Kind kind = deck_[dealt_++];
  if (kind == Kind::kAccess) {
    return {kind, locality_.NextReference(&rng_)};
  }
  uint64_t op_seed = 0;
  while (op_seed == 0) op_seed = rng_.Next();  // 0 means "inline RNG"
  return {kind, op_seed};
}

}  // namespace perfbench
