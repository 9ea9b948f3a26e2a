#include "audit/reduce.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/logging.h"

namespace procsim::audit {
namespace {

using sim::WorkloadOp;

/// `current` minus the chunk [begin, end).
std::vector<WorkloadOp> WithoutRange(const std::vector<WorkloadOp>& current,
                                     std::size_t begin, std::size_t end) {
  std::vector<WorkloadOp> candidate;
  candidate.reserve(current.size() - (end - begin));
  candidate.insert(candidate.end(), current.begin(),
                   current.begin() + static_cast<std::ptrdiff_t>(begin));
  candidate.insert(candidate.end(),
                   current.begin() + static_cast<std::ptrdiff_t>(end),
                   current.end());
  return candidate;
}

}  // namespace

Result<ReduceOutcome> ReduceOpStream(const CrossCheckOptions& options,
                                     const std::vector<WorkloadOp>& ops) {
  Result<CrossCheckReport> initial =
      RunOpStream(options, NormalizeTxnMarkers(ops));
  if (initial.ok()) {
    return Status::InvalidArgument("op stream passes; nothing to reduce (" +
                                   std::to_string(ops.size()) + " ops)");
  }
  Result<ReduceOutcome> outcome = ReduceOpStream(
      options, ops,
      [&options](const std::vector<WorkloadOp>& candidate) {
        return !RunOpStream(options, candidate).ok();
      },
      initial.status().ToString());
  if (outcome.ok()) ++outcome.ValueOrDie().probes;  // the initial run above
  return outcome;
}

Result<ReduceOutcome> ReduceOpStream(const CrossCheckOptions& options,
                                     const std::vector<WorkloadOp>& ops,
                                     const ReduceProbe& probe,
                                     const std::string& failure) {
  ReduceOutcome outcome;
  outcome.failure = failure;
  std::vector<WorkloadOp> current = NormalizeTxnMarkers(ops);
  ++outcome.probes;
  if (!probe(current)) {
    return Status::InvalidArgument(
        "op stream passes the probe; nothing to reduce (" +
        std::to_string(ops.size()) + " ops)");
  }

  // Accepts `candidate` (already normalized) as the new current stream.
  // Normalization can re-grow a candidate back into the current stream
  // (e.g. removing a trailing kCommit that normalization re-appends); such
  // no-op candidates are rejected without probing or the loops would spin.
  const auto try_candidate = [&](std::vector<WorkloadOp> candidate) {
    candidate = NormalizeTxnMarkers(std::move(candidate));
    if (candidate.size() >= current.size()) return false;
    ++outcome.probes;
    if (!probe(candidate)) return false;
    current = std::move(candidate);
    return true;
  };

  // ddmin: try removing ever-finer chunks; on success restart at the
  // coarsest granularity that still covers the shrunk stream.
  std::size_t chunks = 2;
  while (current.size() >= 2) {
    const std::size_t chunk_size =
        std::max<std::size_t>(1, current.size() / chunks);
    bool reduced = false;
    for (std::size_t begin = 0; begin < current.size(); begin += chunk_size) {
      const std::size_t end = std::min(begin + chunk_size, current.size());
      if (end - begin == current.size()) continue;  // would empty the stream
      if (try_candidate(WithoutRange(current, begin, end))) {
        chunks = std::max<std::size_t>(2, chunks - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk_size == 1) break;  // finest granularity exhausted
      chunks = std::min(current.size(), chunks * 2);
    }
  }

  // Greedy single-op elimination until 1-minimal: ddmin's complement pass
  // can leave ops whose removal only helps after a later removal.
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (try_candidate(WithoutRange(current, i, i + 1))) {
        changed = true;
        break;
      }
    }
  }

  outcome.minimal = std::move(current);
  outcome.test_case =
      FormatReducedTestCase(options, outcome.minimal, outcome.failure);
  return outcome;
}

std::vector<WorkloadOp> NormalizeTxnMarkers(
    const std::vector<WorkloadOp>& ops) {
  std::vector<WorkloadOp> normalized;
  normalized.reserve(ops.size() + 1);
  bool open = false;
  for (const WorkloadOp& op : ops) {
    switch (op.kind) {
      case WorkloadOp::Kind::kBegin:
        if (open) continue;  // nested begin: keep the outer transaction
        open = true;
        break;
      case WorkloadOp::Kind::kCommit:
      case WorkloadOp::Kind::kAbort:
        if (!open) continue;  // orphaned terminator: its begin was sliced off
        open = false;
        break;
      default:
        break;
    }
    normalized.push_back(op);
  }
  // Close an unterminated transaction so its ops still take effect — both
  // RunOpStream and recovery discard an uncommitted suffix, which would
  // mask whatever failure those ops were kept to reproduce.
  if (open) {
    normalized.push_back(WorkloadOp{WorkloadOp::Kind::kCommit, 0});
  }
  return normalized;
}

std::string FormatReducedTestCase(const CrossCheckOptions& options,
                                  const std::vector<WorkloadOp>& ops,
                                  const std::string& failure) {
  std::ostringstream out;
  out << "// Reduced reproduction: " << ops.size() << " op"
      << (ops.size() == 1 ? "" : "s") << ".\n"
      << "// Expected failure: " << failure << "\n"
      << "audit::CrossCheckOptions options;\n";
  // One assignment per field that differs from its default, so the
  // snippet replays under exactly the options that failed.
  const auto field = [&out](const char* name, const auto& value,
                            const auto& fallback) {
    if (value == fallback) return;
    out << "options." << name << " = ";
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(value)>>) {
      char buffer[32];  // shortest form that round-trips
      out << std::string_view(
          buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
    } else {
      out << std::boolalpha << value;
    }
    out << ";\n";
  };
  const CrossCheckOptions defaults;
#define PROCSIM_REPRO_FIELD(path) field(#path, options.path, defaults.path)
  PROCSIM_REPRO_FIELD(engine.params.N);
  PROCSIM_REPRO_FIELD(engine.params.S);
  PROCSIM_REPRO_FIELD(engine.params.B);
  PROCSIM_REPRO_FIELD(engine.params.d);
  PROCSIM_REPRO_FIELD(engine.params.f_R2);
  PROCSIM_REPRO_FIELD(engine.params.f_R3);
  PROCSIM_REPRO_FIELD(engine.params.k);
  PROCSIM_REPRO_FIELD(engine.params.l);
  PROCSIM_REPRO_FIELD(engine.params.q);
  PROCSIM_REPRO_FIELD(engine.params.Z);
  PROCSIM_REPRO_FIELD(engine.params.N1);
  PROCSIM_REPRO_FIELD(engine.params.N2);
  PROCSIM_REPRO_FIELD(engine.params.SF);
  PROCSIM_REPRO_FIELD(engine.params.f);
  PROCSIM_REPRO_FIELD(engine.params.f2);
  PROCSIM_REPRO_FIELD(engine.params.C1);
  PROCSIM_REPRO_FIELD(engine.params.C2);
  PROCSIM_REPRO_FIELD(engine.params.C3);
  PROCSIM_REPRO_FIELD(engine.params.C_inval);
  PROCSIM_REPRO_FIELD(engine.seed);
  PROCSIM_REPRO_FIELD(engine.config.cache_budget_bytes);
  PROCSIM_REPRO_FIELD(engine.config.group_commit_size);
  PROCSIM_REPRO_FIELD(engine.config.wal_force_cost_ms);
  PROCSIM_REPRO_FIELD(engine.mix.update_weight);
  PROCSIM_REPRO_FIELD(engine.mix.insert_weight);
  PROCSIM_REPRO_FIELD(engine.mix.delete_weight);
  PROCSIM_REPRO_FIELD(engine.mix.update_batch);
  PROCSIM_REPRO_FIELD(engine.mix.min_r1_tuples);
  PROCSIM_REPRO_FIELD(steps);
  PROCSIM_REPRO_FIELD(compare_sample);
  PROCSIM_REPRO_FIELD(validate_structures);
#undef PROCSIM_REPRO_FIELD
  if (options.engine.params.yao_mode != defaults.engine.params.yao_mode) {
    out << "options.engine.params.yao_mode = cost::YaoMode::kExact;\n";
  }
  if (options.engine.model != defaults.engine.model) {
    out << "options.engine.model = cost::ProcModel::kModel"
        << static_cast<int>(options.engine.model) << ";\n";
  }
  out << "const std::vector<sim::WorkloadOp> ops = {\n";
  for (const WorkloadOp& op : ops) {
    out << "    {sim::WorkloadOp::Kind::" << sim::WorkloadOpKindName(op.kind)
        << ", " << op.value << "ull},\n";
  }
  out << "};\n"
      << "EXPECT_FALSE(audit::RunOpStream(options, ops).ok());\n";
  return out.str();
}

}  // namespace procsim::audit
