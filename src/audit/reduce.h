#ifndef PROCSIM_AUDIT_REDUCE_H_
#define PROCSIM_AUDIT_REDUCE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "audit/crosscheck.h"
#include "sim/workload.h"
#include "util/status.h"

namespace procsim::audit {

/// Result of a delta-debugging reduction.
struct ReduceOutcome {
  /// The 1-minimal failing op stream: removing any single op makes it pass.
  std::vector<sim::WorkloadOp> minimal;
  /// Number of RunOpStream probes the reduction spent.
  std::size_t probes = 0;
  /// The failure the minimal stream still reproduces.
  std::string failure;
  /// A replayable C++ test-case snippet reproducing the failure.
  std::string test_case;
};

/// \brief Shrinks a failing op stream to a minimal reproduction via ddmin
/// (Zeller's delta debugging: chunked complement removal with granularity
/// doubling, finished by a greedy single-op elimination pass until
/// 1-minimal).
///
/// Because ops are self-contained (each mutation carries its own RNG seed),
/// any sublist of a failing stream is a well-formed stream — the property
/// that makes this reduction sound.  Every probe replays the candidate
/// on a fresh txn::TxnEngine, so probes are independent.
///
/// Transaction markers are the one exception to "any sublist is
/// well-formed": slicing can orphan a kCommit or unbalance a kBegin.  Every
/// candidate is therefore passed through NormalizeTxnMarkers() before
/// probing, so a candidate can only fail for the bug under reduction, never
/// for marker malformedness.
///
/// Returns InvalidArgument if `ops` does not fail to begin with.
Result<ReduceOutcome> ReduceOpStream(const CrossCheckOptions& options,
                                     const std::vector<sim::WorkloadOp>& ops);

/// Probe for the generalized reducer: true iff the candidate still fails.
/// Candidates are already marker-normalized when the probe sees them.
using ReduceProbe = std::function<bool(const std::vector<sim::WorkloadOp>&)>;

/// Reduces against an arbitrary failure probe — the crash-point fuzzing
/// harness plugs in "some crash point of this stream still breaks
/// recovery".  `failure` labels the reproduction in the rendered test case;
/// `options` only parameterizes that rendering.  Returns InvalidArgument if
/// the (normalized) input stream does not fail the probe.
Result<ReduceOutcome> ReduceOpStream(const CrossCheckOptions& options,
                                     const std::vector<sim::WorkloadOp>& ops,
                                     const ReduceProbe& probe,
                                     const std::string& failure);

/// Repairs transaction markers so a sliced stream is well-formed again:
/// drops orphan kCommit/kAbort markers, drops a kBegin nested inside an
/// open transaction, and closes an unterminated trailing kBegin with an
/// appended kCommit (recovery semantics would discard the open suffix
/// otherwise, hiding the very ops the reducer is trying to keep).
/// Idempotent; the identity on marker-free and well-formed streams.
std::vector<sim::WorkloadOp> NormalizeTxnMarkers(
    const std::vector<sim::WorkloadOp>& ops);

/// Renders a reduced stream as a paste-ready test-case snippet.
std::string FormatReducedTestCase(const CrossCheckOptions& options,
                                  const std::vector<sim::WorkloadOp>& ops,
                                  const std::string& failure);

}  // namespace procsim::audit

#endif  // PROCSIM_AUDIT_REDUCE_H_
