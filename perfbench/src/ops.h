#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/workload.h"
#include "txn/engine.h"
#include "util/locality.h"
#include "util/rng.h"

namespace perfbench {

/// Ops are dealt from shuffled decks of this many op kinds, so every deck
/// holds the workload's exact mix and only the order varies with the seed.
inline constexpr std::size_t kDeckSize = 20;

/// Length of the proof prefix: the ops whose simulated cost, WAL, layer
/// replay and oracle digests are checked.  A run always executes at least
/// this many ops, so everything derived from the prefix is a pure function
/// of the seed.  Sized so the prefix takes a few seconds on a 4-core x86 box.
inline constexpr std::size_t kProofOps = 3000;

/// One benchmark workload: a procedure model, an op mix and a cache-budget
/// level over the paper's figure-2 database.  README.md says why each
/// exists.  Counts are per deck; the rest of a deck are accesses.
struct WorkloadSpec {
  const char* name;
  procsim::cost::ProcModel model;
  std::size_t updates;  ///< l-tuple in-place update transactions
  std::size_t inserts;  ///< single-tuple R1 inserts
  std::size_t deletes;  ///< single-tuple R1 deletes
  /// 0 = unlimited cache budget; d = a budget of 1/d of the cached-result
  /// bytes the unlimited engine accounts after Create.
  std::size_t budget_divisor;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The database seed.  The database is one fixed instance of the paper's
/// figure-2 database per model; --seed varies the op stream only, so runs
/// with different seeds measure the same procedures under different
/// access and update sequences.
inline constexpr uint64_t kDatabaseSeed = 1988;

/// Engine options for `spec`: figure-2 parameters, l = 25, one WAL force per
/// commit (group_commit_size = 1) and an unlimited cache budget, which the
/// caller lowers for a workload with a budget_divisor.
procsim::txn::TxnEngine::Options EngineOptions(const WorkloadSpec& spec);

/// \brief The seeded op generator.  Accesses draw procedure ids from the
/// paper's two-class locality model (Z of the procedures get 1 - Z of the
/// references); every mutation carries its own seed, so an op replays
/// identically through the engine, through recovery and through the layer
/// replay.
class OpGenerator {
 public:
  OpGenerator(const WorkloadSpec& spec, std::size_t procedure_count,
              double z, uint64_t seed);

  procsim::sim::WorkloadOp Next();

 private:
  using Kind = procsim::sim::WorkloadOp::Kind;

  std::array<Kind, kDeckSize> deck_{};
  std::size_t dealt_ = kDeckSize;  ///< cards of deck_ already dealt
  procsim::LocalityGenerator locality_;
  procsim::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
