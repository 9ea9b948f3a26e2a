// End-to-end benchmark of the transactional engine (txn::TxnEngine).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// One client drives the engine in a closed loop for --seconds of op time:
// every op is one transaction (Begin -> Access|Queue -> Commit).  The first
// kProofOps ops form the proof prefix: its simulated cost, its
// WAL (recovered and compared) and its oracle digest are functions of the
// seed alone.  With --trace 1 the prefix is run again, in lockstep through
// the engine with spans around each call and through the public functions
// of the layers below the engine, and per-layer metrics are reported
// instead of the end-to-end ones.  The last stdout line is the JSON result;
// README.md documents every metric.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "host_speed.h"
#include "obs/metrics.h"
#include "ops.h"
#include "replay.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "spans.h"
#include "stats.h"
#include "txn/engine.h"

namespace perfbench {
namespace {

namespace sim = procsim::sim;
namespace txn = procsim::txn;
using procsim::Result;
using procsim::Status;
using Clock = std::chrono::steady_clock;
using Kind = sim::WorkloadOp::Kind;

/// Stream slices and Creates per run; setup_s is taken over kReps calls.
/// A multiple of four, so on a 4-CPU host every CPU takes the same share.
constexpr int kReps = 8;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Runs `op` as one transaction through the engine's public API, with spans
/// around the engine calls when `spans` is non-null.
Status RunOp(txn::TxnEngine& engine, const sim::WorkloadOp& op,
             SpanLog* spans, uint64_t index) {
  const bool read = op.kind == Kind::kAccess;
  txn::TxnId id = 0;
  {
    ScopedSpan span(spans, "txn.begin", index);
    id = engine.Begin();
  }
  Status status;
  if (read) {
    ScopedSpan span(spans, "txn.access", index);
    status = engine.Access(id, op.value).status();
  } else {
    ScopedSpan span(spans, "txn.queue", index);
    status = engine.Queue(id, op);
  }
  if (!status.ok()) {
    const Status aborted = engine.Abort(id);
    return aborted.ok() ? status : aborted;
  }
  ScopedSpan span(spans, read ? "txn.read_commit" : "txn.write_commit", index);
  return engine.Commit(id);
}

/// What the untraced stream measured and the proof prefix it captured.
struct StreamResult {
  std::vector<double> create_s;  ///< wall time of each timed Create
  /// The reference loop's time, run just before each timed Create on its CPU.
  std::vector<double> reference_s;
  std::vector<int> create_cpu;  ///< the CPU each Create ran on
  std::vector<double> access_us;
  std::vector<double> commit_us;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  double stream_s = 0;  ///< wall time of the stream's ops
  double peak_rss_mb = 0;  ///< high-water RSS after set-up and the prefix
  double recover_s = 0;
  // The proof prefix.
  MeterReading prefix_meter;
  uint64_t prefix_mutations = 0;
  double prefix_s = 0;  ///< wall time of the prefix's ops
  std::vector<procsim::storage::WalRecord> prefix_wal;
  std::string prefix_digest;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// \brief Pins each timed Create to the next CPU of the process's affinity
/// mask, round robin.  On a shared host one CPU can run up to 2x slower than
/// another for minutes, and a single-threaded process tends to stay on one
/// CPU; rotating gives every CPU the same share of the samples, so their
/// median does not rest on where the scheduler put the run.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }

  /// Pins the calling thread to the next CPU; a no-op if the mask is unknown
  /// or pinning fails, so the sample is then taken where the thread runs.
  void PinNext() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  /// Gives the thread its whole original mask back.
  void Release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof mask_, &mask_);
  }

 private:
  cpu_set_t mask_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Times the reference loop and then one TxnEngine::Create, both on the
/// next CPU of `cpus`, into `out`; null if the Create fails.
std::unique_ptr<txn::TxnEngine> TimedCreate(
    const txn::TxnEngine::Options& options, CpuRotation* cpus,
    StreamResult* out) {
  cpus->PinNext();
  out->reference_s.push_back(ReferenceLoopSeconds());
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<txn::TxnEngine>> created =
      txn::TxnEngine::Create(options);
  out->create_s.push_back(Seconds(Clock::now() - t0));
  out->create_cpu.push_back(sched_getcpu());
  cpus->Release();
  if (!created.ok()) {
    std::cerr << "create failed: " << created.status().ToString() << "\n";
    return nullptr;
  }
  return created.TakeValueOrDie();
}

/// The cached-result bytes an unlimited engine accounts after Create, or 0
/// if that fails.  The engine is built in a child process, so this
/// process's peak RSS stays that of the budgeted engine it measures.
std::size_t UnlimitedFootprint(txn::TxnEngine::Options options) {
  options.config.cache_budget_bytes = 0;
  int fds[2];
  if (pipe(fds) != 0) return 0;
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    Result<std::unique_ptr<txn::TxnEngine>> created =
        txn::TxnEngine::Create(options);
    const uint64_t bytes =
        created.ok()
            ? created.ValueOrDie()->strategies().budget->accounted_bytes()
            : 0;
    const bool sent = write(fds[1], &bytes, sizeof bytes) == sizeof bytes;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  uint64_t bytes = 0;
  if (child < 0 || read(fds[0], &bytes, sizeof bytes) != sizeof bytes) {
    bytes = 0;
  }
  close(fds[0]);
  if (child > 0) waitpid(child, nullptr, 0);
  return bytes;
}

/// Times one recovery of the prefix WAL into `recover_s` and checks the
/// recovered engine against the live prefix.
void TimedRecover(const txn::TxnEngine::Options& options, Checks* checks,
                  StreamResult* out) {
  txn::TxnEngine::RecoveryReport report;
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<txn::TxnEngine>> recovered = txn::TxnEngine::Recover(
      options, out->prefix_wal, txn::TxnEngine::RecoveryInjection{}, &report);
  out->recover_s = Seconds(Clock::now() - t0);
  checks->ExpectOk(recovered.status(), "recover the prefix WAL");
  if (!recovered.ok()) return;
  Result<std::string> digest = recovered.ValueOrDie()->StateDigest();
  checks->Expect(digest.ok() && digest.ValueOrDie() == out->prefix_digest,
                 "recovered digest equals the live digest at the prefix");
  checks->Expect(report.replayed_mutations == out->prefix_mutations,
                 "recovery replays every prefix mutation (" +
                     std::to_string(report.replayed_mutations) + " of " +
                     std::to_string(out->prefix_mutations) + ")");
}

/// Set-up, the timed closed-loop stream, recovery of the prefix WAL and the
/// end-of-stream oracle sweep.  The host's speed drifts over tens of
/// seconds and from CPU to CPU, so the stream runs in kReps slices with one
/// timed Create before each, each on the next CPU: setup_s then samples the
/// whole run and every CPU rather than one stretch of one CPU.
/// Returns false if the engine cannot be built.
bool RunStream(const WorkloadSpec& spec, const Args& args,
               const txn::TxnEngine::Options& options, Checks* checks,
               StreamResult* out) {
  CpuRotation cpus;
  std::unique_ptr<txn::TxnEngine> engine =
      TimedCreate(options, &cpus, out);
  if (engine == nullptr) return false;
  OpGenerator ops(spec, engine->procedure_count(), options.params.Z,
                  args.seed);
  const MeterReading meter_start =
      MeterReading::Of(engine->database()->meter);
  for (int slice = 0; slice < kReps; ++slice) {
    const double slice_end = args.seconds * (slice + 1) / kReps;
    // The first slice always covers the whole proof prefix.
    while (out->ops < kProofOps || out->stream_s < slice_end) {
      const sim::WorkloadOp op = ops.Next();
      const Clock::time_point t0 = Clock::now();
      const Status status = RunOp(*engine, op, nullptr, out->ops);
      const Clock::time_point t1 = Clock::now();
      out->stream_s += Seconds(t1 - t0);
      if (out->ops < kProofOps && op.kind != Kind::kAccess) {
        ++out->prefix_mutations;
      }
      ++out->ops;
      if (!status.ok()) {
        if (++out->failed_ops <= 5) {
          std::cerr << "op " << out->ops - 1 << " ("
                    << sim::WorkloadOpKindName(op.kind)
                    << ") failed: " << status.ToString() << "\n";
        }
      } else {
        (op.kind == Kind::kAccess ? out->access_us : out->commit_us)
            .push_back(Seconds(t1 - t0) * 1e6);
      }
      if (out->ops == kProofOps) {
        out->peak_rss_mb = PeakRssMb();
        out->prefix_s = out->stream_s;
        out->prefix_meter =
            MeterReading::Of(engine->database()->meter) - meter_start;
        out->prefix_wal = engine->WalSnapshot();
        Result<std::string> digest = engine->StateDigest();
        checks->ExpectOk(digest.status(), "live digest at the prefix end");
        if (digest.ok()) out->prefix_digest = digest.TakeValueOrDie();
      }
    }
    if (slice + 1 < kReps &&
        TimedCreate(options, &cpus, out) == nullptr) {
      return false;
    }
  }
  TimedRecover(options, checks, out);

  checks->ExpectOk(engine->Flush(), "flush");
  checks->ExpectOk(engine->CompareAllAgainstOracle(),
                   "six strategies against the oracle after the stream");
  return true;
}

/// setup_s: the median over the run's Creates of each Create's time divided
/// by the reference loop's time just before it on the same CPU, scaled by
/// kReferenceLoopS.  That is Create time in seconds at the reference host
/// speed; the host's drift, which slows both alike, mostly cancels.
double SetupSeconds(const StreamResult& stream) {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < stream.create_s.size(); ++i) {
    scaled.push_back(stream.create_s[i] / stream.reference_s[i] *
                     kReferenceLoopS);
  }
  return Median(scaled);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Checks& checks, uint64_t ops, uint64_t failed_ops,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  const uint64_t failed = failed_ops + checks.failed();
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ops + checks.attempted()
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void PrintPercentile(const char* what, const Percentile& p) {
  std::printf("  %-14s p%-6g = %10.1f us  (n=%zu, %zu beyond)\n", what,
              p.quantile * 100, p.value, p.samples, p.beyond);
}

/// The traced run: the proof prefix again, in lockstep through a fresh
/// engine with spans around every engine call and through the layer replay,
/// so both sides run under the same process conditions.  Fills the per-layer
/// metrics; false if set-up fails.
bool TracedRun(const WorkloadSpec& spec, const Args& args,
               const txn::TxnEngine::Options& options,
               const StreamResult& stream, Checks* checks,
               std::vector<Metric>* metrics) {
  SpanLog spans;
  std::unique_ptr<txn::TxnEngine> engine;
  {
    ScopedSpan span(&spans, "txn.create");
    Result<std::unique_ptr<txn::TxnEngine>> created =
        txn::TxnEngine::Create(options);
    if (!created.ok()) {
      std::cerr << "create failed: " << created.status().ToString() << "\n";
      return false;
    }
    engine = created.TakeValueOrDie();
  }
  LayerReplay replay;
  if (!replay.Build(options, &spans)) return false;

  const MeterReading engine_start =
      MeterReading::Of(engine->database()->meter);
  OpGenerator ops(spec, engine->procedure_count(), options.params.Z,
                  args.seed);
  CounterSplit counters;
  uint64_t failed_ops = 0;
  for (uint64_t i = 0; i < kProofOps; ++i) {
    const sim::WorkloadOp op = ops.Next();
    {
      ScopedSpan span(&spans,
                      op.kind == Kind::kAccess ? "op.read" : "op.write", i);
      if (!RunOp(*engine, op, &spans, i).ok()) ++failed_ops;
    }
    counters.Charge(CounterSplit::kEngine);
    replay.Step(op, i, &spans, checks);
    counters.Charge(CounterSplit::kReplay);
  }
  checks->Expect(failed_ops == 0, "every traced engine op succeeds (" +
                                      std::to_string(failed_ops) + " failed)");
  checks->Expect(MeterReading::Of(engine->database()->meter) - engine_start ==
                     stream.prefix_meter,
                 "traced engine pass repeats the prefix's simulated cost");
  checks->Expect(replay.meter() == stream.prefix_meter,
                 "layer replay repeats the prefix's simulated cost");
  Result<std::string> digest = engine->StateDigest();
  checks->Expect(digest.ok() && digest.ValueOrDie() == stream.prefix_digest,
                 "traced engine pass reaches the prefix digest");
  checks->Expect(replay.Digest() == stream.prefix_digest,
                 "layer replay reaches the prefix digest");
  // Every layer counter the replay drives must repeat the engine's count;
  // txn.*, wal.* and latch counters move only inside the engine.
  for (const std::string& name : counters.names()) {
    if (name.rfind("txn.", 0) == 0 || name.rfind("wal.", 0) == 0 ||
        name.rfind("concurrent.", 0) == 0) {
      continue;
    }
    const uint64_t in_engine = counters.Count(CounterSplit::kEngine, name);
    const uint64_t in_replay = counters.Count(CounterSplit::kReplay, name);
    checks->Expect(in_engine == in_replay,
                   "counter " + name + " repeats in the replay (engine " +
                       std::to_string(in_engine) + ", replay " +
                       std::to_string(in_replay) + ")");
  }
  if (!args.trace_out.empty() && !spans.WriteJsonLines(args.trace_out)) {
    std::cerr << "could not write spans to " << args.trace_out << "\n";
  }

  const double k = static_cast<double>(kProofOps);
  const double accesses = static_cast<double>(replay.accesses());
  const double commits = static_cast<double>(replay.commits());
  const auto rc = [&](const char* name) {
    return static_cast<double>(counters.Count(CounterSplit::kReplay, name));
  };
  const auto ec = [&](const char* name) {
    return static_cast<double>(counters.Count(CounterSplit::kEngine, name));
  };
  const auto per_access_us = [&](const char* name) {
    return Ratio(spans.Sum(name).seconds * 1e6, accesses);
  };
  const auto per_commit_us = [&](const char* name) {
    return Ratio(spans.Sum(name).seconds * 1e6, commits);
  };
  // Replayed time inside one engine access / write, for the engine's self
  // time: strategies and canonicalisation; apply, change batch and notify.
  double replay_access_s = spans.Sum("harness.canonical").seconds;
  double replay_write_s = spans.Sum("storage.apply").seconds +
                          spans.Sum("ivm.change_batch").seconds;
  for (const StrategySpans& entry : kStrategySpans) {
    replay_access_s += spans.Sum(entry.access).seconds;
    replay_write_s += spans.Sum(entry.notify).seconds;
  }
  const SpanLog::Total reads = spans.Sum("op.read");
  const SpanLog::Total writes = spans.Sum("op.write");
  const SpanLog::Total apply = spans.Sum("storage.apply");
  const double build_s = spans.Sum("sim.build").seconds;
  const double prepare_s = spans.Sum("proc.prepare").seconds;
  const double untraced_ops_per_s = Ratio(k, stream.prefix_s);
  const double traced_ops_per_s = Ratio(k, reads.seconds + writes.seconds);
  const double ci_accesses = rc("proc.cache_invalidate.accesses");
  const double ci_refreshes = rc("proc.cache_invalidate.true_invalidations") +
                              rc("proc.cache_invalidate.false_invalidations");
  std::printf("  traced: %zu spans; engine %.1f ops/s traced, %.1f untraced\n",
              spans.size(), traced_ops_per_s, untraced_ops_per_s);

  *metrics = {
      {"sim.build_s", build_s, "s"},
      {"proc.prepare_s", prepare_s, "s"},
      {"storage.apply_us",
       Ratio(apply.seconds * 1e6, static_cast<double>(apply.count)), "us"},
      {"storage.disk_reads_per_op",
       static_cast<double>(replay.meter().reads) / k, "count"},
      {"storage.disk_writes_per_op",
       static_cast<double>(replay.meter().writes) / k, "count"},
      {"relational.ar_access_us", per_access_us("relational.ar_access"), "us"},
      {"relational.screens_per_access",
       Ratio(static_cast<double>(replay.ar_screens()), accesses), "count"},
      {"exec.batch.selected_ratio",
       Ratio(rc("exec.batch.rows_selected"), rc("exec.batch.rows_submitted")),
       "ratio"},
      {"proc.ci_access_us", per_access_us("proc.ci_access"), "us"},
      {"proc.hybrid_access_us", per_access_us("proc.hybrid_access"), "us"},
      {"proc.adaptive_access_us", per_access_us("proc.adaptive_access"), "us"},
      {"proc.ci_hit_ratio",
       Ratio(ci_accesses - rc("proc.cache_invalidate.invalid_accesses") -
                 static_cast<double>(replay.ci_reloads()),
             ci_accesses),
       "ratio"},
      {"proc.ci_false_invalidation_ratio",
       Ratio(rc("proc.cache_invalidate.false_invalidations"), ci_refreshes),
       "ratio"},
      {"proc.ci_notify_us", per_commit_us("proc.ci_notify"), "us"},
      {"proc.cache_evictions_per_access",
       Ratio(rc("cache.evictions.count"), accesses), "count"},
      {"proc.cache_reloads_per_access",
       Ratio(rc("cache.entries.reloaded"), accesses), "count"},
      {"ivm.avm_access_us", per_access_us("ivm.avm_access"), "us"},
      {"ivm.avm_notify_us", per_commit_us("ivm.avm_notify"), "us"},
      {"ivm.delta_tuples_per_commit",
       Ratio(rc("proc.update_cache_avm.delta_tuples_applied"), commits),
       "count"},
      {"rete.rvm_access_us", per_access_us("rete.rvm_access"), "us"},
      {"rete.rvm_notify_us", per_commit_us("rete.rvm_notify"), "us"},
      {"rete.tokens_per_commit",
       Ratio(rc("rete.network.tokens_submitted"), commits), "count"},
      {"rete.and_probes_per_commit", Ratio(rc("rete.and.probes"), commits),
       "count"},
      {"harness.canonical_us", per_access_us("harness.canonical"), "us"},
      {"txn.access_self_us",
       Ratio(reads.seconds * 1e6, static_cast<double>(reads.count)) -
           Ratio(replay_access_s * 1e6, accesses),
       "us"},
      {"txn.commit_self_us",
       Ratio(writes.seconds * 1e6, static_cast<double>(writes.count)) -
           Ratio(replay_write_s * 1e6, commits),
       "us"},
      {"txn.wal_records_per_commit",
       Ratio(ec("wal.records.appended"), ec("txn.manager.commits")), "count"},
      {"txn.lock_grants_per_op", Ratio(ec("txn.lock.grants"), k), "count"},
      {"txn.recover_redo_s", stream.recover_s - build_s - prepare_s, "s"},
      {"trace.overhead_ratio", Ratio(traced_ops_per_s, untraced_ops_per_s),
       "ratio"},
      {"trace.untraced_ops_per_s", untraced_ops_per_s, "1/s"},
  };
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  txn::TxnEngine::Options options = EngineOptions(*spec);
  if (spec->budget_divisor != 0) {
    const std::size_t footprint = UnlimitedFootprint(options);
    if (footprint == 0) {
      std::cerr << "could not measure the unlimited cache footprint\n";
      return 1;
    }
    options.config.cache_budget_bytes =
        std::max<std::size_t>(1, footprint / spec->budget_divisor);
  }
  Checks checks;
  StreamResult stream;
  if (!RunStream(*spec, args, options, &checks, &stream)) return 1;

  std::vector<double> access = stream.access_us;
  std::vector<double> commit = stream.commit_us;
  const Percentile access_p50 = At(access, 0.5);
  const Percentile access_tail = Tail(access, 0.99);
  const Percentile commit_p50 = At(commit, 0.5);
  const Percentile commit_tail = Tail(commit, 0.99);
  const double ops_per_s = Ratio(static_cast<double>(stream.ops),
                                 stream.stream_s);
  const double sim_ms_per_op =
      stream.prefix_meter.total_ms / static_cast<double>(kProofOps);
  std::printf("%s seed=%llu: %llu ops in %.2f s, %llu failed; budget %zu B\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(stream.ops), stream.stream_s,
              static_cast<unsigned long long>(stream.failed_ops),
              options.config.cache_budget_bytes);
  PrintPercentile("access", access_p50);
  PrintPercentile("access", access_tail);
  PrintPercentile("commit", commit_p50);
  PrintPercentile("commit", commit_tail);
  std::printf("  %d Creates: median %.3f s, reference loop median %.4f s, "
              "setup_s %.3f s\n",
              kReps, Median(stream.create_s), Median(stream.reference_s),
              SetupSeconds(stream));
  std::printf("  Creates (cpu: create s / reference s):");
  for (std::size_t i = 0; i < stream.create_s.size(); ++i) {
    std::printf(" %d: %.3f/%.4f", stream.create_cpu[i], stream.create_s[i],
                stream.reference_s[i]);
  }
  std::printf("\n  recovery %.3f s; sim %.4f ms/op over %zu ops\n",
              stream.recover_s, sim_ms_per_op, kProofOps);

  if (!args.trace) {
    PrintResult(checks, stream.ops, stream.failed_ops,
                {{"setup_s", SetupSeconds(stream), "s"},
                 {"sim_ms_per_op", sim_ms_per_op, "sim_ms"},
                 {"peak_rss_mb", stream.peak_rss_mb, "MB"}});
    return 0;
  }

  std::vector<Metric> layers;
  if (!TracedRun(*spec, args, options, stream, &checks, &layers)) return 1;
  // The stream's wall-clock figures: reported, but too dependent on the
  // host's speed to bound (README.md, "Noise").
  layers.insert(layers.end(),
                {{"txn.access_p50_us", access_p50.value, "us"},
                 {"txn.access_p99_us", access_tail.value, "us"},
                 {"txn.commit_p50_us", commit_p50.value, "us"},
                 {"txn.commit_p99_us", commit_tail.value, "us"},
                 {"txn.ops_per_s", ops_per_s, "1/s"},
                 {"txn.recover_s", stream.recover_s, "s"},
                 {"txn.create_s", Median(stream.create_s), "s"}});
  PrintResult(checks, stream.ops, stream.failed_ops, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
