#include "concurrent/session_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "audit/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace procsim::concurrent {
namespace {

using sim::WorkloadOp;

obs::Histogram* const g_access_cost = obs::GlobalMetrics().RegisterHistogram(
    "concurrent.session.access_cost_ms", obs::DefaultCostBuckets());

/// Derived seed for session `i`'s workload stream: distinct per session,
/// reproducible from the pool seed.
uint64_t SessionSeed(uint64_t pool_seed, std::size_t session) {
  return pool_seed * 6364136223846793005ull + (session + 1) * 1442695040888963407ull;
}

/// Runs `op` as one engine transaction — Begin, Access or Queue, Commit,
/// with Abort when a step fails — and returns the access's canonical result
/// bytes (empty for a mutation).
Result<std::string> RunOp(txn::TxnEngine* engine, const WorkloadOp& op) {
  const bool access = op.kind == WorkloadOp::Kind::kAccess;
  obs::TraceSpan span(
      access ? "concurrent.session.access" : "concurrent.session.mutate",
      "concurrent");
  const txn::TxnId txn = engine->Begin();
  std::string digest;
  Status status;
  if (access) {
    // Metered cost of this access summed over all six strategies.  The
    // meter is shared, so concurrent sessions perturb each other's deltas
    // by their own charges; the histogram is exact in deterministic mode.
    const double before_ms = engine->database()->meter.total_ms();
    Result<std::string> answer = engine->Access(txn, op.value);
    status = answer.status();
    if (answer.ok()) {
      g_access_cost->Observe(engine->database()->meter.total_ms() - before_ms);
      digest = answer.TakeValueOrDie();
    }
  } else {
    status = engine->Queue(txn, op);
  }
  if (!status.ok()) {
    PROCSIM_RETURN_IF_ERROR(engine->Abort(txn));
    return status;
  }
  // Mutations apply at the group flush: inside this Commit with the default
  // group_commit_size of 1, batched with later commits otherwise.
  PROCSIM_RETURN_IF_ERROR(engine->Commit(txn));
  return digest;
}

}  // namespace

Result<SessionPool::RunResult> SessionPool::Run(const Options& options) {
  PROCSIM_CHECK_GT(options.sessions, 0u);
  Result<std::unique_ptr<txn::TxnEngine>> built =
      txn::TxnEngine::Create(options.engine);
  if (!built.ok()) return built.status();
  std::unique_ptr<txn::TxnEngine> engine = built.TakeValueOrDie();
  const std::size_t proc_count = engine->procedure_count();

  std::vector<std::vector<WorkloadOp>> streams;
  streams.reserve(options.sessions);
  for (std::size_t i = 0; i < options.sessions; ++i) {
    sim::Workload workload(options.engine.mix, proc_count,
                           SessionSeed(options.engine.seed, i));
    streams.push_back(workload.Take(options.ops_per_session));
  }

  RunResult result;
  std::vector<Status> session_errors(options.sessions, Status::OK());
  std::atomic<std::size_t> accesses{0};
  std::atomic<std::size_t> mutations{0};

  if (options.deterministic) {
    // The merged schedule is a pure function of the seed: draw the next
    // session uniformly among those with ops remaining, up front.
    std::vector<std::size_t> turn_order;
    turn_order.reserve(options.sessions * options.ops_per_session);
    {
      Rng scheduler(options.engine.seed ^ 0x9e3779b97f4a7c15ull);
      std::vector<std::size_t> remaining(options.sessions,
                                         options.ops_per_session);
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < options.sessions; ++i) live.push_back(i);
      while (!live.empty()) {
        const std::size_t pick = scheduler.Uniform(live.size());
        const std::size_t session = live[pick];
        turn_order.push_back(session);
        if (--remaining[session] == 0) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }

    util::RankedMutex pool_mutex(util::LatchRank::kSessionPool, "SessionPool");
    std::condition_variable_any turn_cv;
    std::size_t next_turn = 0;
    std::vector<std::size_t> cursor(options.sessions, 0);
    bool aborted = false;

    auto session_body = [&](std::size_t id) {
      util::RankedUniqueLock lock(pool_mutex);
      for (;;) {
        turn_cv.wait(lock, [&] {
          return aborted || next_turn >= turn_order.size() ||
                 turn_order[next_turn] == id;
        });
        if (aborted || next_turn >= turn_order.size()) return;
        const WorkloadOp& op = streams[id][cursor[id]++];
        // Execute while holding the pool latch: deterministic mode is
        // barrier-stepped by design, and kSessionPool is below every
        // engine latch, so they stay rank-legal under it.
        Result<std::string> digest = RunOp(engine.get(), op);
        if (!digest.ok()) {
          session_errors[id] = digest.status();
          aborted = true;
        } else if (op.kind == WorkloadOp::Kind::kAccess) {
          result.access_digests.push_back(digest.TakeValueOrDie());
          accesses.fetch_add(1, std::memory_order_relaxed);
        } else {
          mutations.fetch_add(1, std::memory_order_relaxed);
        }
        result.executed.push_back(op);
        ++next_turn;
        turn_cv.notify_all();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(options.sessions);
    for (std::size_t i = 0; i < options.sessions; ++i) {
      threads.emplace_back(session_body, i);
    }
    for (std::thread& thread : threads) thread.join();
  } else {
    auto session_body = [&](std::size_t id) {
      for (const WorkloadOp& op : streams[id]) {
        Result<std::string> digest = RunOp(engine.get(), op);
        if (!digest.ok()) {
          session_errors[id] = digest.status();
          return;
        }
        (op.kind == WorkloadOp::Kind::kAccess ? accesses : mutations)
            .fetch_add(1, std::memory_order_relaxed);
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(options.sessions);
    for (std::size_t i = 0; i < options.sessions; ++i) {
      threads.emplace_back(session_body, i);
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::vector<WorkloadOp>& stream : streams) {
      result.executed.insert(result.executed.end(), stream.begin(),
                             stream.end());
    }
  }

  for (const Status& status : session_errors) {
    PROCSIM_RETURN_IF_ERROR(status);
  }
  PROCSIM_RETURN_IF_ERROR(engine->CompareAllAgainstOracle());
  PROCSIM_RETURN_IF_ERROR(audit::ValidateEngine(*engine));
  result.accesses = accesses.load();
  result.mutations = mutations.load();
  result.total_cost_ms = engine->database()->meter.total_ms();
  const proc::CacheBudget& budget = *engine->strategies().budget;
  result.budget_accounted_bytes = budget.accounted_bytes();
  result.budget_evictions = budget.eviction_count();
  return result;
}

}  // namespace procsim::concurrent
