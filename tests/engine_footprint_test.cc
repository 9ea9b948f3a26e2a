// Memory regressions at paper scale.  A model-1 engine whose cache budget
// holds a tenth of its cached results evicts and reloads constantly.  Each
// reload rebuilds a cache and each invalidation recomputes one; the pages
// those rebuilds replace must go back to the disk, so the live page count
// stays where Create left it however long the engine runs.  And the pages
// keep no padding.  (Named to stay out of the audit preset's focused tests:
// a paper-scale build is quadratic under its validators.)
#include <algorithm>
#include <cstddef>
#include <memory>

#include <gtest/gtest.h>

#include "sim/workload.h"
#include "storage/disk.h"
#include "txn/engine.h"

namespace procsim::txn {
namespace {

TxnEngine::Options Model1Options() {
  TxnEngine::Options options;
  options.model = cost::ProcModel::kModel1;
  options.seed = 1988;
  options.config.group_commit_size = 1;
  options.mix.update_batch = static_cast<std::size_t>(options.params.l);
  return options;
}

TEST(EngineFootprintTest, EvictingRunKeepsLiveDiskFlat) {
  TxnEngine::Options options = Model1Options();
  std::size_t unlimited_bytes = 0;
  {
    Result<std::unique_ptr<TxnEngine>> unlimited = TxnEngine::Create(options);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    unlimited_bytes =
        unlimited.ValueOrDie()->strategies().budget->accounted_bytes();
  }
  ASSERT_GT(unlimited_bytes, 0u);
  options.config.cache_budget_bytes =
      std::max<std::size_t>(1, unlimited_bytes / 10);
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TxnEngine& engine = *created.ValueOrDie();
  const storage::SimulatedDisk& disk = *engine.database()->disk;
  const std::size_t live_after_create = disk.live_page_count();
  const std::size_t ids_after_create = disk.page_count();

  sim::Workload workload(options.mix, engine.procedure_count(), 2024);
  ASSERT_TRUE(engine.Run(workload.Take(3000)).ok());
  ASSERT_TRUE(engine.Flush().ok());

  // The run churned through many more page ids than stay live...
  EXPECT_GT(engine.strategies().budget->eviction_count(), 0u);
  EXPECT_GT(disk.page_count() - ids_after_create, live_after_create / 2);
  // ...but what stays live only drifts with the results' sizes, as the
  // inserts and deletes grow and shrink them (an unlimited engine gains 49
  // pages on this run).  Kept, the replaced pages would add ~11 000.
  EXPECT_LE(disk.live_page_count(), live_after_create + 64)
      << "live pages after Create: " << live_after_create;
}

// Pages account each tuple at the paper's S = 100 bytes but keep only its
// natural bytes, so the memory the live pages hold stays well under the B
// bytes per page the model charges for.  Storing the padding (every arena B
// bytes) could not meet the bound.
TEST(EngineFootprintTest, PaddingIsNotResident) {
  const TxnEngine::Options options = Model1Options();
  Result<std::unique_ptr<TxnEngine>> created = TxnEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TxnEngine& engine = *created.ValueOrDie();
  const storage::SimulatedDisk& disk = *engine.database()->disk;
  const auto expect_half_of_model = [&disk](const char* when) {
    const std::size_t modelled = disk.live_page_count() * disk.page_size();
    EXPECT_LE(disk.resident_bytes(), modelled / 2)
        << when << ": " << disk.live_page_count() << " live pages";
  };
  expect_half_of_model("after Create");

  sim::Workload workload(options.mix, engine.procedure_count(), 2024);
  ASSERT_TRUE(engine.Run(workload.Take(3000)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  expect_half_of_model("after 3000 ops");
}

}  // namespace
}  // namespace procsim::txn
