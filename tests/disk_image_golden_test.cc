// Pins the physical result of a fixed workload at paper scale: the bytes of
// every live disk page, the write-ahead log's records, the oracle state
// digest, the procedure answers and the simulated-cost totals.  The 30 bench goldens pin simulated costs
// only; this test additionally catches a change to the on-page node layout,
// to B-tree split points or to the pages an operation charges, even when
// the answers and totals happen to survive it.  A deliberate layout change
// must re-derive the pins below and say so.  (The audit preset's focused
// structure tests leave this one out: its validators make every mutation
// O(n), so a paper-scale build is quadratic there.)
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proc/update_cache_rvm.h"
#include "sim/workload.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "txn/engine.h"

namespace procsim::txn {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fnv1a(const uint8_t* data, std::size_t size, uint64_t* hash) {
  for (std::size_t i = 0; i < size; ++i) {
    *hash ^= data[i];
    *hash *= kFnvPrime;
  }
}

void Fnv1a(const std::string& text, uint64_t* hash) {
  Fnv1a(reinterpret_cast<const uint8_t*>(text.data()), text.size(), hash);
}

/// FNV-1a over every live page's Page::Serialize() bytes, in page-id
/// order; freed ids are skipped.
uint64_t PageImageHash(storage::SimulatedDisk* disk) {
  storage::MeteringGuard guard(disk);
  uint64_t hash = kFnvOffset;
  for (storage::PageId id = 0; id < disk->page_count(); ++id) {
    if (!disk->IsLive(id)) continue;
    Result<storage::Page*> page = disk->ReadPage(id);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) return 0;
    const std::vector<uint8_t> bytes = page.ValueOrDie()->Serialize();
    Fnv1a(bytes.data(), bytes.size(), &hash);
  }
  return hash;
}

void Fnv1a(uint64_t value, uint64_t* hash) {
  uint8_t bytes[8];
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  Fnv1a(bytes, sizeof(bytes), hash);
}

/// FNV-1a over every write-ahead-log record's kind, txn, a and b, in log
/// order: pins which invalidations were logged and in what order.
uint64_t WalHash(const std::vector<storage::WalRecord>& records) {
  uint64_t hash = kFnvOffset;
  for (const storage::WalRecord& record : records) {
    const auto kind = static_cast<uint8_t>(record.kind);
    Fnv1a(&kind, 1, &hash);
    Fnv1a(record.txn, &hash);
    Fnv1a(record.a, &hash);
    Fnv1a(record.b, &hash);
  }
  return hash;
}

struct Pins {
  uint64_t page_hash;
  uint64_t wal_hash;
  uint64_t answer_hash;
  uint64_t digest_hash;
  double total_ms;
  uint64_t disk_reads;
  uint64_t disk_writes;
  uint64_t screens;
  uint64_t delta_ops;
};

/// Builds the paper's figure-2 database (seed 1988) under `model`, runs a
/// seeded mix of accesses, l-tuple updates, inserts and deletes, one
/// transaction per op, and reports what the run left behind.
Pins RunScript(cost::ProcModel model, std::size_t op_count) {
  TxnEngine::Options options;
  options.model = model;
  options.seed = 1988;
  options.config.group_commit_size = 1;
  options.mix.update_batch = static_cast<std::size_t>(options.params.l);
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return {};
  TxnEngine& engine = *created.ValueOrDie();

  sim::Workload workload(options.mix, engine.procedure_count(), 2024);
  uint64_t answer_hash = kFnvOffset;
  for (const sim::WorkloadOp& op : workload.Take(op_count)) {
    const TxnId txn = engine.Begin();
    if (op.kind == sim::WorkloadOp::Kind::kAccess) {
      Result<std::string> answer = engine.Access(txn, op.value);
      EXPECT_TRUE(answer.ok()) << answer.status().ToString();
      if (answer.ok()) Fnv1a(answer.ValueOrDie(), &answer_hash);
    } else {
      const Status queued = engine.Queue(txn, op);
      EXPECT_TRUE(queued.ok()) << queued.ToString();
    }
    const Status committed = engine.Commit(txn);
    EXPECT_TRUE(committed.ok()) << committed.ToString();
  }
  EXPECT_TRUE(engine.Flush().ok());

  sim::Database* db = engine.database();
  Pins pins{};
  pins.total_ms = db->meter.total_ms();
  pins.disk_reads = db->meter.disk_reads();
  pins.disk_writes = db->meter.disk_writes();
  pins.screens = db->meter.screens();
  pins.delta_ops = db->meter.delta_ops();
  pins.page_hash = PageImageHash(db->disk.get());
  pins.wal_hash = WalHash(engine.WalSnapshot());
  pins.answer_hash = answer_hash;
  Result<std::string> digest = engine.StateDigest();
  EXPECT_TRUE(digest.ok()) << digest.status().ToString();
  pins.digest_hash = kFnvOffset;
  if (digest.ok()) Fnv1a(digest.ValueOrDie(), &pins.digest_hash);
  return pins;
}

std::string Describe(const Pins& pins) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                "%.17g, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(pins.page_hash),
                static_cast<unsigned long long>(pins.wal_hash),
                static_cast<unsigned long long>(pins.answer_hash),
                static_cast<unsigned long long>(pins.digest_hash),
                pins.total_ms,
                static_cast<unsigned long long>(pins.disk_reads),
                static_cast<unsigned long long>(pins.disk_writes),
                static_cast<unsigned long long>(pins.screens),
                static_cast<unsigned long long>(pins.delta_ops));
  return buffer;
}

void ExpectPins(const Pins& expected, const Pins& actual) {
  SCOPED_TRACE("actual pins: " + Describe(actual));
  EXPECT_EQ(expected.page_hash, actual.page_hash);
  EXPECT_EQ(expected.wal_hash, actual.wal_hash);
  EXPECT_EQ(expected.answer_hash, actual.answer_hash);
  EXPECT_EQ(expected.digest_hash, actual.digest_hash);
  EXPECT_DOUBLE_EQ(expected.total_ms, actual.total_ms);
  EXPECT_EQ(expected.disk_reads, actual.disk_reads);
  EXPECT_EQ(expected.disk_writes, actual.disk_writes);
  EXPECT_EQ(expected.screens, actual.screens);
  EXPECT_EQ(expected.delta_ops, actual.delta_ops);
}

constexpr std::size_t kOps = 120;

TEST(DiskImageGoldenTest, Model1) {
  ExpectPins({0x7e4f4bf5848feed8ULL, 0x69aa42a86a1522c4ULL,
              0x0191d0e0c2df5b5eULL, 0x4b5321fa7c537d6fULL, 415298, 7907, 829,
              152274, 944},
             RunScript(cost::ProcModel::kModel1, kOps));
}

TEST(DiskImageGoldenTest, Model2) {
  // The log matches Model1's: the script writes R1 only, so only the base
  // selections' i-locks break, and both models draw the same ones.
  ExpectPins({0x7b36d5ed46d73c69ULL, 0x69aa42a86a1522c4ULL,
              0xb95d498c2154e6b1ULL, 0x542d936f8123e19bULL, 408977, 8308, 977,
              129659, 768},
             RunScript(cost::ProcModel::kModel2, kOps));
}

/// The shape of the RVM strategy's Rete network right after Create(): the
/// node counts, how many subexpressions AddProcedures shared and how many
/// relation snapshots populated unconditional selections.  A change to its
/// sharing decisions moves these even when the charges the goldens pin
/// happen not to.
void ExpectNetworkShape(cost::ProcModel model,
                        const rete::ReteNetwork::Stats& expected) {
  TxnEngine::Options options;
  options.model = model;
  options.seed = 1988;
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const rete::ReteNetwork::Stats& stats =
      created.ValueOrDie()->strategies().rvm->network_stats();
  EXPECT_EQ(stats.tconst_nodes, expected.tconst_nodes);
  EXPECT_EQ(stats.alpha_memories, expected.alpha_memories);
  EXPECT_EQ(stats.and_nodes, expected.and_nodes);
  EXPECT_EQ(stats.beta_memories, expected.beta_memories);
  EXPECT_EQ(stats.shared_subexpression_hits,
            expected.shared_subexpression_hits);
  EXPECT_EQ(stats.relation_scans, expected.relation_scans);
}

TEST(DiskImageGoldenTest, Model1NetworkShape) {
  ExpectNetworkShape(cost::ProcModel::kModel1, {250, 250, 100, 100, 50, 1});
}

TEST(DiskImageGoldenTest, Model2NetworkShape) {
  ExpectNetworkShape(cost::ProcModel::kModel2, {251, 251, 200, 200, 149, 2});
}

}  // namespace
}  // namespace procsim::txn
