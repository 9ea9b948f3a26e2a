// Delta-debugging reducer for differential-oracle failures.
//
// Generates the op stream a given audit_fuzz seed would execute, optionally
// plants a silent (un-notified) update to create a reproducible
// lost-invalidation bug, and shrinks the stream to a minimal failing
// reproduction printed as a paste-ready test case.
//
// Usage:
//   reduce --seed=7 --steps=120 [--model=2] [--plant-silent=IDX]
//          [--n=200] [--n1=6] [--n2=6] [--l=20] [--compare-sample=2]
//
// With --plant-silent=IDX the op at position IDX is replaced by a
// kSilentUpdate (same seed), so the stream genuinely fails and the reducer
// has something to shrink; without it, the tool reduces only if the seed
// already exposes a real bug (exit 0 with "stream passes" otherwise).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "audit/crosscheck.h"
#include "audit/reduce.h"
#include "sim/workload.h"

namespace {

uint64_t FlagValue(int argc, char** argv, const char* name,
                   uint64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using procsim::audit::CrossCheckOptions;
  using procsim::sim::WorkloadOp;

  CrossCheckOptions options;
  procsim::txn::TxnEngine::Options& engine = options.engine;
  engine.seed = FlagValue(argc, argv, "seed", 7);
  options.steps = static_cast<std::size_t>(FlagValue(argc, argv, "steps", 120));
  engine.model = FlagValue(argc, argv, "model", 1) == 2
                     ? procsim::cost::ProcModel::kModel2
                     : procsim::cost::ProcModel::kModel1;
  engine.params.N = static_cast<double>(FlagValue(argc, argv, "n", 200));
  engine.params.N1 = static_cast<double>(FlagValue(argc, argv, "n1", 6));
  engine.params.N2 = static_cast<double>(FlagValue(argc, argv, "n2", 6));
  // Update batches wide enough, and selection intervals long enough, that
  // a planted silent update almost surely breaks some procedure.
  engine.params.l = static_cast<double>(FlagValue(argc, argv, "l", 20));
  engine.mix.update_batch = static_cast<std::size_t>(engine.params.l);
  engine.params.f_R2 = 0.1;
  engine.params.f_R3 = 0.1;
  engine.params.f = 0.08;
  engine.params.f2 = 0.3;
  options.compare_sample =
      static_cast<std::size_t>(FlagValue(argc, argv, "compare-sample", 0));

  std::vector<WorkloadOp> ops = procsim::audit::GenerateOpStream(options);
  if (HasFlag(argc, argv, "plant-silent")) {
    const std::size_t index = static_cast<std::size_t>(
        FlagValue(argc, argv, "plant-silent", 0));
    if (index >= ops.size()) {
      std::fprintf(stderr, "plant-silent index %zu out of range (%zu ops)\n",
                   index, ops.size());
      return 2;
    }
    ops[index].kind = WorkloadOp::Kind::kSilentUpdate;
    if (ops[index].value == 0) ops[index].value = engine.seed + 1;
  }

  std::printf("reducing %zu ops (seed %llu)...\n", ops.size(),
              static_cast<unsigned long long>(engine.seed));
  procsim::Result<procsim::audit::ReduceOutcome> reduced =
      procsim::audit::ReduceOpStream(options, ops);
  if (!reduced.ok()) {
    std::printf("%s\n", reduced.status().ToString().c_str());
    return reduced.status().code() == procsim::StatusCode::kInvalidArgument
               ? 0
               : 1;
  }
  const procsim::audit::ReduceOutcome& outcome = reduced.ValueOrDie();
  std::printf("minimal reproduction: %zu op%s after %zu probes\n",
              outcome.minimal.size(), outcome.minimal.size() == 1 ? "" : "s",
              outcome.probes);
  std::printf("failure: %s\n\n%s", outcome.failure.c_str(),
              outcome.test_case.c_str());
  return 0;
}
