#include "ivm/tuple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "util/rng.h"

namespace procsim::ivm {
namespace {

using rel::Tuple;
using rel::Value;
using storage::RecordId;

Tuple Row(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }

// The tuples ProbeEqual visits, in visit order.
Result<std::vector<Tuple>> Probe(const TupleStore& store, std::size_t column,
                                 int64_t key) {
  std::vector<Tuple> matches;
  PROCSIM_RETURN_IF_ERROR(store.ProbeEqual(column, key, [&](Tuple&& match) {
    matches.push_back(std::move(match));
    return Status::OK();
  }));
  return matches;
}

class TupleStoreTest : public ::testing::Test {
 protected:
  TupleStoreTest() : disk_(4000, &meter_) {}
  CostMeter meter_;
  storage::SimulatedDisk disk_;
};

TEST_F(TupleStoreTest, InsertContainsRemove) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  EXPECT_TRUE(store.Contains(Row(1, 2)));
  EXPECT_FALSE(store.Contains(Row(2, 1)));
  ASSERT_TRUE(store.Remove(Row(1, 2)).ok());
  EXPECT_FALSE(store.Contains(Row(1, 2)));
  EXPECT_EQ(store.Remove(Row(1, 2)).code(), StatusCode::kNotFound);
}

TEST_F(TupleStoreTest, BagSemanticsForDuplicates) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.Remove(Row(1, 1)).ok());
  EXPECT_TRUE(store.Contains(Row(1, 1)));  // one instance left
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(TupleStoreTest, ReadAllReturnsEverythingAndChargesPerPage) {
  TupleStore store(&disk_, 100);
  {
    storage::MeteringGuard unmetered(&disk_);
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(store.Insert(Row(i, i)).ok());
    }
  }
  meter_.Reset();
  auto all = store.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().size(), 100u);
  EXPECT_EQ(meter_.disk_reads(), 3u);  // 100 padded tuples, 40/page
  EXPECT_EQ(store.page_count(), 3u);
}

TEST_F(TupleStoreTest, ProbeIndexOnDemand) {
  TupleStore store(&disk_, 100);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Insert(Row(i % 4, i)).ok());
  }
  // Index built after data exists; must backfill.
  store.EnsureProbeIndex(0);
  auto matches = Probe(store, 0, 2);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.ValueOrDie().size(), 5u);
  for (const Tuple& t : matches.ValueOrDie()) {
    EXPECT_EQ(t.value(0).AsInt64(), 2);
  }
  // Index maintained by later mutations.
  ASSERT_TRUE(store.Insert(Row(2, 99)).ok());
  ASSERT_TRUE(store.Remove(Row(2, 2)).ok());
  EXPECT_EQ(Probe(store, 0, 2).ValueOrDie().size(), 5u);
}

TEST_F(TupleStoreTest, ProbeWithoutIndexFails) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  EXPECT_EQ(Probe(store, 1, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TupleStoreTest, ColumnZeroIsAlwaysIndexed) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  ASSERT_TRUE(store.Insert(Row(3, 4)).ok());
  Result<std::vector<Tuple>> matches = Probe(store, 0, 3);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_EQ(matches.ValueOrDie(), std::vector<Tuple>{Row(3, 4)});
}

TEST_F(TupleStoreTest, ProbeReturnsMatchesInRecordOrder) {
  TupleStore store(&disk_, 100);
  store.EnsureProbeIndex(1);
  ASSERT_TRUE(store.Insert(Row(1, 7)).ok());
  ASSERT_TRUE(store.Insert(Row(2, 8)).ok());
  ASSERT_TRUE(store.Insert(Row(3, 7)).ok());
  ASSERT_TRUE(store.Insert(Row(4, 7)).ok());
  Result<std::vector<Tuple>> matches = Probe(store, 1, 7);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_EQ(matches.ValueOrDie(),
            (std::vector<Tuple>{Row(1, 7), Row(3, 7), Row(4, 7)}));
}

TEST_F(TupleStoreTest, WalksVisitTuplesInRecordOrder) {
  TupleStore store(&disk_, 100);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Insert(Row(i * 7919 % 101, i)).ok());
  }
  for (int64_t i = 0; i < 100; i += 3) {
    ASSERT_TRUE(store.Remove(Row(i * 7919 % 101, i)).ok());
  }
  Result<std::vector<Tuple>> read_all = store.ReadAll();
  ASSERT_TRUE(read_all.ok());
  std::vector<Tuple> visited;
  store.ForEach([&](const Tuple& tuple) {
    visited.push_back(tuple);
    return true;
  });
  EXPECT_EQ(visited, read_all.ValueOrDie());
  EXPECT_EQ(store.SnapshotForTesting(), read_all.ValueOrDie());

  visited.clear();
  store.ForEach([&](const Tuple& tuple) {
    visited.push_back(tuple);
    return visited.size() < 3;
  });
  EXPECT_EQ(visited, std::vector<Tuple>(read_all.ValueOrDie().begin(),
                                        read_all.ValueOrDie().begin() + 3));
}

TEST_F(TupleStoreTest, MultipleProbeIndexesCoexist) {
  TupleStore store(&disk_, 100);
  store.EnsureProbeIndex(0);
  store.EnsureProbeIndex(1);
  ASSERT_TRUE(store.Insert(Row(1, 10)).ok());
  ASSERT_TRUE(store.Insert(Row(2, 10)).ok());
  EXPECT_EQ(Probe(store, 0, 1).ValueOrDie().size(), 1u);
  EXPECT_EQ(Probe(store, 1, 10).ValueOrDie().size(), 2u);
}

TEST_F(TupleStoreTest, RebuildChargesReadModifyWrite) {
  TupleStore store(&disk_, 100);
  std::vector<Tuple> eighty;
  for (int64_t i = 0; i < 80; ++i) eighty.push_back(Row(i, i));
  ASSERT_TRUE(store.Rebuild(eighty).ok());  // 2 pages
  meter_.Reset();
  ASSERT_TRUE(store.Rebuild(eighty).ok());
  // Old 2 pages re-read; new 2 pages written (+ allocations/appends charged
  // once per page within the access scope).
  EXPECT_GE(meter_.disk_reads(), 2u);
  EXPECT_GE(meter_.disk_writes(), 2u);
  EXPECT_EQ(store.size(), 80u);
}

TEST_F(TupleStoreTest, RebuildReplacesContents) {
  TupleStore store(&disk_, 100);
  store.EnsureProbeIndex(0);
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  ASSERT_TRUE(store.Rebuild({Row(2, 2), Row(3, 3)}).ok());
  EXPECT_FALSE(store.Contains(Row(1, 1)));
  EXPECT_TRUE(store.Contains(Row(2, 2)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(Probe(store, 0, 1).ValueOrDie().size(), 0u);
  EXPECT_EQ(Probe(store, 0, 3).ValueOrDie().size(), 1u);
}

TEST_F(TupleStoreTest, RebuildFreesThePagesItReplaces) {
  const std::size_t before = disk_.live_page_count();
  {
    TupleStore store(&disk_, 100);
    for (int64_t round = 0; round < 100; ++round) {
      std::vector<Tuple> tuples;
      for (int64_t i = 0; i < 40 + round % 50; ++i) {
        tuples.push_back(Row(round, i));
      }
      ASSERT_TRUE(store.Rebuild(tuples).ok());
    }
    ASSERT_GT(store.page_count(), 1u);
    EXPECT_EQ(disk_.live_page_count(), before + store.page_count());
    EXPECT_GT(disk_.page_count(), disk_.live_page_count());  // ids retired
    EXPECT_TRUE(store.CheckConsistency().ok());
  }
  EXPECT_EQ(disk_.live_page_count(), before);  // the destructor frees too
}

TEST_F(TupleStoreTest, SnapshotIsUnmetered) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 1)).ok());
  meter_.Reset();
  auto snapshot = store.SnapshotForTesting();
  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
}

TEST_F(TupleStoreTest, LookupsReadPagesUnmetered) {
  TupleStore store(&disk_, 100);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Insert(Row(i, i)).ok());
  }
  meter_.Reset();
  {
    storage::AccessScope scope(&disk_);
    ASSERT_TRUE(store.ReadAll().ok());
  }
  const uint64_t read_all_alone = meter_.disk_reads();
  ASSERT_EQ(read_all_alone, 3u);

  // Contains decodes a record from the last page without a charge, and
  // that read must not enter the scope's dedup set either: ReadAll still
  // pays for every page.
  meter_.Reset();
  {
    storage::AccessScope scope(&disk_);
    EXPECT_TRUE(store.Contains(Row(90, 90)));
    EXPECT_FALSE(store.Contains(Row(90, 91)));
    EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
    ASSERT_TRUE(store.ReadAll().ok());
  }
  EXPECT_EQ(meter_.disk_reads(), read_all_alone);

  // Remove pays for the record's page (read, write) and nothing for the
  // lookup that found it.
  meter_.Reset();
  ASSERT_TRUE(store.Remove(Row(90, 90)).ok());
  EXPECT_EQ(meter_.disk_reads(), 1u);
  EXPECT_EQ(meter_.disk_writes(), 1u);
}

TEST_F(TupleStoreTest, LookupsCompareValuesNotBytes) {
  TupleStore store(&disk_, 100);
  const Tuple plus_zero({Value(0.0)});
  const Tuple minus_zero({Value(-0.0)});
  ASSERT_NE(plus_zero.Serialize(), minus_zero.Serialize());
  ASSERT_TRUE(store.Insert(plus_zero).ok());
  EXPECT_TRUE(store.Contains(minus_zero));
  Result<std::vector<Tuple>> before = store.ReadAll();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie().size(), 1u);
  EXPECT_FALSE(std::signbit(before.ValueOrDie()[0].value(0).AsDouble()));
  ASSERT_TRUE(store.Remove(minus_zero).ok());
  EXPECT_EQ(store.size(), 0u);

  const Tuple nan_one({Value(std::nan("1"))});
  const Tuple nan_two({Value(std::nan("2"))});
  ASSERT_NE(nan_one.Serialize(), nan_two.Serialize());
  ASSERT_TRUE(store.Insert(nan_one).ok());
  EXPECT_TRUE(store.Contains(nan_two));
  ASSERT_TRUE(store.Remove(nan_two).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST_F(TupleStoreTest, RemoveTakesTheLowestEqualRecord) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Tuple({Value(0.0)})).ok());
  ASSERT_TRUE(store.Insert(Tuple({Value(-0.0)})).ok());
  ASSERT_TRUE(store.Remove(Tuple({Value(0.0)})).ok());
  Result<std::vector<Tuple>> left = store.ReadAll();
  ASSERT_TRUE(left.ok());
  ASSERT_EQ(left.ValueOrDie().size(), 1u);
  EXPECT_TRUE(std::signbit(left.ValueOrDie()[0].value(0).AsDouble()));
}

TEST_F(TupleStoreTest, PageHoldsTheOnlyCopy) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.Insert(Row(1, 2)).ok());
  ASSERT_EQ(disk_.page_count(), 1u);

  // Overwrite the record in place with a different tuple of the same size.
  const std::vector<uint8_t> bytes = Row(7, 8).Serialize();
  Result<storage::Page*> page = disk_.ReadPage(0);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(page.ValueOrDie()
                  ->Update(0, bytes.data(), static_cast<uint32_t>(bytes.size()),
                           100)
                  .ok());

  const std::vector<Tuple> snapshot = store.SnapshotForTesting();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0], Row(7, 8));
  EXPECT_FALSE(store.Contains(Row(1, 2)));
  const Status consistency = store.CheckConsistency();
  EXPECT_EQ(consistency.code(), StatusCode::kInternal);
  EXPECT_NE(consistency.ToString().find("does not hash to its index key"),
            std::string::npos)
      << consistency.ToString();
}

// Two int64 keys whose Value::Hash agree in the low 32 bits: one tag, so
// one home slot, for two different values.
constexpr int64_t kTagTwinA = 1482008352108671526;
constexpr int64_t kTagTwinB = 6231150877740702512;

TEST_F(TupleStoreTest, TagCollisionCostsNothing) {
  ASSERT_EQ(PostingTable::TagOf(Value(kTagTwinA).Hash()),
            PostingTable::TagOf(Value(kTagTwinB).Hash()));
  ASSERT_NE(Value(kTagTwinA).Hash(), Value(kTagTwinB).Hash());

  TupleStore alone(&disk_, 100);
  alone.EnsureProbeIndex(1);
  ASSERT_TRUE(alone.Insert(Row(kTagTwinA, kTagTwinA)).ok());
  TupleStore both(&disk_, 100);
  both.EnsureProbeIndex(1);
  ASSERT_TRUE(both.Insert(Row(kTagTwinB, kTagTwinB)).ok());
  ASSERT_TRUE(both.Insert(Row(kTagTwinA, kTagTwinA)).ok());
  ASSERT_TRUE(both.Insert(Row(kTagTwinB, kTagTwinB)).ok());

  for (std::size_t column : {0u, 1u}) {
    meter_.Reset();
    Result<std::vector<Tuple>> single = Probe(alone, column, kTagTwinA);
    ASSERT_TRUE(single.ok());
    const double single_ms = meter_.total_ms();
    const uint64_t single_reads = meter_.disk_reads();
    meter_.Reset();
    Result<std::vector<Tuple>> twinned = Probe(both, column, kTagTwinA);
    ASSERT_TRUE(twinned.ok());
    // The twins are decoded un-metered and skipped: no extra row, no charge.
    EXPECT_EQ(twinned.ValueOrDie(),
              std::vector<Tuple>{Row(kTagTwinA, kTagTwinA)});
    EXPECT_EQ(twinned.ValueOrDie(), single.ValueOrDie());
    EXPECT_EQ(meter_.disk_reads(), single_reads);
    EXPECT_EQ(single_reads, 1u);
    EXPECT_DOUBLE_EQ(meter_.total_ms(), single_ms);
  }

  meter_.Reset();
  EXPECT_FALSE(alone.Contains(Row(kTagTwinB, kTagTwinB)));
  EXPECT_TRUE(both.Contains(Row(kTagTwinA, kTagTwinA)));
  EXPECT_DOUBLE_EQ(meter_.total_ms(), 0.0);
  ASSERT_TRUE(both.Remove(Row(kTagTwinA, kTagTwinA)).ok());
  EXPECT_FALSE(both.Contains(Row(kTagTwinA, kTagTwinA)));
  EXPECT_EQ(Probe(both, 1, kTagTwinB).ValueOrDie().size(), 2u);
  EXPECT_TRUE(both.CheckConsistency().ok());
}

// PostingTable on its own, with tags chosen by hand rather than hashed.

RecordId Rid(uint32_t n) {
  return RecordId{n / 40, static_cast<uint16_t>(n % 40)};
}

// The rids filed under `tag`, sorted.
std::vector<RecordId> WithTag(const PostingTable& table, uint32_t tag) {
  std::vector<RecordId> rids;
  table.ForEachWithTag(tag, [&](RecordId rid) { rids.push_back(rid); });
  std::sort(rids.begin(), rids.end());
  return rids;
}

// The first tag at or after `from` whose home in a table of `table`'s
// capacity is `slot`.
uint32_t TagHomedAt(const PostingTable& table, std::size_t slot,
                    uint32_t from = 0) {
  uint32_t tag = from;
  while (table.HomeSlot(tag) != slot) ++tag;
  return tag;
}

// A table grown to 16 slots by 7 postings of one tag homed at slot 4, so
// they fill slots 4..10 and leave the wrap-around point free.
PostingTable SixteenSlotTable(uint32_t* filler_tag) {
  PostingTable sizing;
  for (uint32_t i = 0; i < 7; ++i) sizing.Insert(0, Rid(i));
  EXPECT_EQ(sizing.capacity(), 16u);
  *filler_tag = TagHomedAt(sizing, 4);
  PostingTable table;
  for (uint32_t i = 0; i < 7; ++i) table.Insert(*filler_tag, Rid(1000 + i));
  EXPECT_EQ(table.capacity(), 16u);
  return table;
}

TEST(TupleStorePostingTableTest, EmptyTable) {
  PostingTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_TRUE(WithTag(table, 7).empty());
  EXPECT_FALSE(table.Erase(7, Rid(0)));
  EXPECT_TRUE(table.CheckStructure().ok());
}

TEST(TupleStorePostingTableTest, ManyPostingsWithOneTag) {
  PostingTable table;
  std::vector<RecordId> expected;
  for (uint32_t i = 0; i < 300; ++i) {
    table.Insert(42, Rid(i));
    expected.push_back(Rid(i));
  }
  table.Insert(43, Rid(5000));
  ASSERT_TRUE(table.CheckStructure().ok());
  EXPECT_EQ(table.size(), 301u);
  EXPECT_EQ(WithTag(table, 42), expected);
  EXPECT_EQ(WithTag(table, 43), std::vector<RecordId>{Rid(5000)});
  EXPECT_FALSE(table.Erase(42, Rid(5000)));  // the rid is filed elsewhere
  EXPECT_FALSE(table.Erase(44, Rid(0)));

  // Erase from the front, the middle and the back of the one cluster.
  for (uint32_t i : {0u, 150u, 299u, 1u, 151u, 298u}) {
    ASSERT_TRUE(table.Erase(42, Rid(i)));
    expected.erase(std::find(expected.begin(), expected.end(), Rid(i)));
    ASSERT_TRUE(table.CheckStructure().ok()) << "after erasing " << i;
    ASSERT_EQ(WithTag(table, 42), expected);
  }
  EXPECT_EQ(WithTag(table, 43), std::vector<RecordId>{Rid(5000)});
  EXPECT_EQ(table.size(), 295u);
}

TEST(TupleStorePostingTableTest, EraseInTheMiddleOfAMixedCluster) {
  uint32_t filler = 0;
  PostingTable table = SixteenSlotTable(&filler);
  // Tags homed at 5 and 6 land past the fillers' run (slots 11, 12, ...),
  // interleaved with it in one cluster.
  const uint32_t at5 = TagHomedAt(table, 5);
  const uint32_t at6 = TagHomedAt(table, 6);
  table.Insert(at5, Rid(1));
  table.Insert(at6, Rid(2));
  table.Insert(at5, Rid(3));
  ASSERT_TRUE(table.CheckStructure().ok());
  // Erasing a filler in the middle shifts the later postings back.
  ASSERT_TRUE(table.Erase(filler, Rid(1003)));
  ASSERT_TRUE(table.CheckStructure().ok());
  EXPECT_EQ(WithTag(table, at5), (std::vector<RecordId>{Rid(1), Rid(3)}));
  EXPECT_EQ(WithTag(table, at6), std::vector<RecordId>{Rid(2)});
  EXPECT_EQ(WithTag(table, filler).size(), 6u);
  ASSERT_TRUE(table.Erase(at5, Rid(1)));
  ASSERT_TRUE(table.CheckStructure().ok());
  EXPECT_EQ(WithTag(table, at5), std::vector<RecordId>{Rid(3)});
  EXPECT_EQ(WithTag(table, at6), std::vector<RecordId>{Rid(2)});
  EXPECT_EQ(table.size(), 8u);
}

TEST(TupleStorePostingTableTest, EraseAcrossTheWrapAroundPoint) {
  uint32_t filler = 0;
  PostingTable table = SixteenSlotTable(&filler);
  const uint32_t at14 = TagHomedAt(table, 14);
  const uint32_t at15 = TagHomedAt(table, 15);
  const uint32_t at0 = TagHomedAt(table, 0);
  // One cluster over slots 14, 15, 0, 1, 2: 14 and 15 from their own
  // homes, the rest wrapped past the end of the array.
  table.Insert(at14, Rid(1));
  table.Insert(at15, Rid(2));
  table.Insert(at14, Rid(3));
  table.Insert(at0, Rid(4));
  table.Insert(at15, Rid(5));
  ASSERT_EQ(table.capacity(), 16u);
  ASSERT_TRUE(table.CheckStructure().ok());

  // Erase the last slot before the wrap: the wrapped postings shift back
  // across it, except where that would pass their home.
  ASSERT_TRUE(table.Erase(at15, Rid(2)));
  ASSERT_TRUE(table.CheckStructure().ok());
  EXPECT_EQ(WithTag(table, at14), (std::vector<RecordId>{Rid(1), Rid(3)}));
  EXPECT_EQ(WithTag(table, at15), std::vector<RecordId>{Rid(5)});
  EXPECT_EQ(WithTag(table, at0), std::vector<RecordId>{Rid(4)});

  // Erase the cluster's head, then the wrapped posting homed at 0.
  ASSERT_TRUE(table.Erase(at14, Rid(1)));
  ASSERT_TRUE(table.CheckStructure().ok());
  ASSERT_TRUE(table.Erase(at0, Rid(4)));
  ASSERT_TRUE(table.CheckStructure().ok());
  EXPECT_EQ(WithTag(table, at14), std::vector<RecordId>{Rid(3)});
  EXPECT_EQ(WithTag(table, at15), std::vector<RecordId>{Rid(5)});
  EXPECT_TRUE(WithTag(table, at0).empty());
  EXPECT_EQ(WithTag(table, filler).size(), 7u);
  EXPECT_EQ(table.size(), 9u);
}

TEST(TupleStorePostingTableTest, GrowsWhileDuplicatesArePresent) {
  PostingTable table;
  std::size_t last_capacity = 0;
  int growths = 0;
  for (uint32_t i = 0; i < 400; ++i) {
    table.Insert(i % 3 == 0 ? 9u : 10u, Rid(i));
    if (table.capacity() != last_capacity) {
      ++growths;
      last_capacity = table.capacity();
      // Every posting survives the rehash, duplicates included.
      ASSERT_TRUE(table.CheckStructure().ok()) << "at " << i;
      ASSERT_EQ(WithTag(table, 9).size() + WithTag(table, 10).size(), i + 1);
    }
  }
  EXPECT_EQ(growths, 8);  // 8, 16, ..., 1024 slots
  EXPECT_EQ(table.capacity(), 1024u);
  EXPECT_EQ(WithTag(table, 9).size(), 134u);
  EXPECT_EQ(WithTag(table, 10).size(), 266u);
}

TEST(TupleStorePostingTableTest, ClearReleasesTheSlots) {
  PostingTable table;
  for (uint32_t i = 0; i < 100; ++i) table.Insert(i, Rid(i));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_TRUE(WithTag(table, 5).empty());
  table.Insert(5, Rid(5));
  EXPECT_EQ(WithTag(table, 5), std::vector<RecordId>{Rid(5)});
  EXPECT_TRUE(table.CheckStructure().ok());
}

// Seeded churn over a handful of tags, which keeps clusters long and makes
// erases wrap around often, against a model multimap.
TEST(TupleStorePostingTableTest, ChurnMatchesAModel) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    PostingTable table;
    std::multimap<uint32_t, RecordId> model;
    uint32_t next_rid = 0;
    for (int step = 0; step < 3000; ++step) {
      const auto tag = static_cast<uint32_t>(rng.Uniform(6));
      if (model.empty() || rng.Uniform(100) < 55) {
        table.Insert(tag, Rid(next_rid));
        model.emplace(tag, Rid(next_rid++));
      } else {
        auto victim = model.begin();
        std::advance(victim, rng.Uniform(model.size()));
        ASSERT_TRUE(table.Erase(victim->first, victim->second));
        model.erase(victim);
      }
      ASSERT_TRUE(table.CheckStructure().ok()) << "seed " << seed << " step "
                                               << step;
      ASSERT_EQ(table.size(), model.size());
      if (step % 50 == 0) {
        for (uint32_t t = 0; t < 6; ++t) {
          std::vector<RecordId> expected;
          for (auto [it, end] = model.equal_range(t); it != end; ++it) {
            expected.push_back(it->second);
          }
          std::sort(expected.begin(), expected.end());
          ASSERT_EQ(WithTag(table, t), expected)
              << "seed " << seed << " step " << step << " tag " << t;
        }
      }
    }
  }
}

TEST(TupleStorePostingTableTest, ReserveMatchesIncrementalGrowth) {
  PostingTable grown;
  for (uint32_t n = 0; n <= 400; ++n) {
    if (n > 0) grown.Insert(n % 5, Rid(n));
    PostingTable reserved;
    reserved.Reserve(n);
    ASSERT_EQ(reserved.capacity(), grown.capacity()) << n << " postings";
    ASSERT_EQ(reserved.size(), 0u);
    for (uint32_t i = 1; i <= n; ++i) reserved.Insert(i % 5, Rid(i));
    ASSERT_EQ(reserved.capacity(), grown.capacity()) << n << " postings";
    ASSERT_TRUE(reserved.CheckStructure().ok()) << n << " postings";
    for (uint32_t tag = 0; tag < 5; ++tag) {
      ASSERT_EQ(WithTag(reserved, tag), WithTag(grown, tag));
    }
  }
  // Reserving on a loaded table keeps its postings and never shrinks it.
  const std::size_t capacity = grown.capacity();
  grown.Reserve(10);
  EXPECT_EQ(grown.capacity(), capacity);
  grown.Reserve(2000);
  EXPECT_EQ(grown.capacity(), 4096u);
  EXPECT_EQ(grown.size(), 400u);
  EXPECT_TRUE(grown.CheckStructure().ok());
  EXPECT_EQ(WithTag(grown, 0).size(), 80u);
}

// Charge pins.  A padded store on 4000-byte pages holds 40 tuples a page.
// Each insert reads the last page and marks it dirty; one that finds the
// page full also allocates (a write) and reads a fresh page.  So the first
// tuple costs 1 read + 2 writes, one opening a later page 2 reads + 2
// writes, and any other 1 read + 1 write.  A batch that charged once per
// page instead would break these counts.
struct Charges {
  uint64_t reads;
  uint64_t writes;
  bool operator==(const Charges&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Charges& charges) {
  return out << charges.reads << " reads, " << charges.writes << " writes";
}

class TupleStoreChargeTest : public TupleStoreTest {
 protected:
  template <typename Fn>
  Charges Measure(Fn&& fn) {
    meter_.Reset();
    fn();
    return Charges{meter_.disk_reads(), meter_.disk_writes()};
  }

  static std::vector<Tuple> Rows(int64_t n) {
    std::vector<Tuple> rows;
    for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i % 7, i));
    return rows;
  }
};

TEST_F(TupleStoreChargeTest, InsertAndInsertManyChargePerRecord) {
  const std::vector<Tuple> rows = Rows(100);  // pages of 40, 40 and 20
  TupleStore one_by_one(&disk_, 100);
  const Charges singly = Measure([&] {
    for (const Tuple& row : rows) ASSERT_TRUE(one_by_one.Insert(row).ok());
  });
  EXPECT_EQ(singly, (Charges{1 + 39 + 2 + 39 + 2 + 19,  // 102
                             2 + 39 + 2 + 39 + 2 + 19}));  // 103

  TupleStore batched(&disk_, 100);
  batched.EnsureProbeIndex(1);
  EXPECT_EQ(Measure([&] { ASSERT_TRUE(batched.InsertMany(rows).ok()); }),
            singly);
  EXPECT_EQ(batched.SnapshotForTesting(), rows);
  EXPECT_TRUE(batched.CheckConsistency().ok());

  // A batch appended to a partly filled page: 20 more fill page 3, then
  // 5 open page 4.
  EXPECT_EQ(Measure([&] {
              ASSERT_TRUE(batched.InsertMany(Rows(25)).ok());
            }),
            (Charges{20 + 2 + 4, 20 + 2 + 4}));

  // Inside an access scope each page is charged once: one write to
  // allocate, one read, and the dirtying write the allocation already
  // paid for.
  TupleStore scoped(&disk_, 100);
  EXPECT_EQ(Measure([&] {
              storage::AccessScope scope(&disk_);
              ASSERT_TRUE(scoped.InsertMany(rows).ok());
            }),
            (Charges{3, 3}));
  EXPECT_EQ(Measure([&] { ASSERT_TRUE(scoped.InsertMany({}).ok()); }),
            (Charges{0, 0}));
}

TEST_F(TupleStoreChargeTest, ProbeEqualChargesOneReadPerMatch) {
  TupleStore store(&disk_, 100);
  store.EnsureProbeIndex(1);
  ASSERT_TRUE(store.InsertMany(Rows(100)).ok());
  ASSERT_TRUE(store.Insert(Row(kTagTwinA, 3)).ok());
  ASSERT_TRUE(store.Insert(Row(kTagTwinB, 4)).ok());

  // Key 3 on column 0 matches rows 3, 10, ..., 94: 14 of them, on all
  // three pages.
  std::size_t visited = 0;
  const auto count = [&](Tuple&&) {
    ++visited;
    return Status::OK();
  };
  EXPECT_EQ(Measure([&] { ASSERT_TRUE(store.ProbeEqual(0, 3, count).ok()); }),
            (Charges{14, 0}));
  EXPECT_EQ(visited, 14u);
  EXPECT_EQ(Measure([&] {
              storage::AccessScope scope(&disk_);
              ASSERT_TRUE(store.ProbeEqual(0, 3, count).ok());
            }),
            (Charges{3, 0}));
  // A single match: one read.  Its tag twin is decoded un-metered and
  // neither charged nor visited.
  visited = 0;
  EXPECT_EQ(Measure([&] {
              ASSERT_TRUE(store.ProbeEqual(0, kTagTwinA, count).ok());
            }),
            (Charges{1, 0}));
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(Measure([&] {
              ASSERT_TRUE(store.ProbeEqual(0, 12345, count).ok());
            }),
            (Charges{0, 0}));
  // Column 1 (an on-demand index): every value is unique.
  EXPECT_EQ(Measure([&] { ASSERT_TRUE(store.ProbeEqual(1, 50, count).ok()); }),
            (Charges{1, 0}));
}

TEST_F(TupleStoreChargeTest, ForEachChargesOnlyWhatItsCallbackDoes) {
  TupleStore store(&disk_, 100);
  ASSERT_TRUE(store.InsertMany(Rows(100)).ok());
  const storage::PageId probe_page = disk_.AllocatePage();
  std::size_t visited = 0;
  EXPECT_EQ(Measure([&] {
              store.ForEach([&](const Tuple&) {
                ++visited;
                return true;
              });
            }),
            (Charges{0, 0}));
  EXPECT_EQ(visited, 100u);
  // The callback runs under the caller's metering, one call per tuple,
  // and stops the walk when it returns false.
  visited = 0;
  EXPECT_EQ(Measure([&] {
              store.ForEach([&](const Tuple&) {
                EXPECT_TRUE(disk_.ReadPage(probe_page).ok());
                return ++visited < 45;
              });
            }),
            (Charges{45, 0}));
  EXPECT_EQ(Measure([&] {
              storage::AccessScope scope(&disk_);
              store.ForEach([&](const Tuple&) {
                EXPECT_TRUE(disk_.ReadPage(probe_page).ok());
                return true;
              });
            }),
            (Charges{1, 0}));
}

}  // namespace
}  // namespace procsim::ivm
