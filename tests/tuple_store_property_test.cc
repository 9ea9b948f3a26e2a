// Randomized property test: TupleStore behaves like a reference multiset
// under interleaved insert/remove/rebuild, with probe indexes added at
// random points staying consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ivm/tuple_store.h"
#include "util/rng.h"

namespace procsim::ivm {
namespace {

using rel::Tuple;
using rel::Value;

Tuple Row(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }

std::size_t ProbeCount(const TupleStore& store, std::size_t column,
                       int64_t key) {
  std::size_t count = 0;
  const Status probed = store.ProbeEqual(column, key, [&](Tuple&&) {
    ++count;
    return Status::OK();
  });
  EXPECT_TRUE(probed.ok()) << probed.ToString();
  return count;
}

class TupleStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TupleStorePropertyTest, MatchesReferenceMultiset) {
  Rng rng(GetParam());
  CostMeter meter;
  storage::SimulatedDisk disk(1000, &meter);
  TupleStore store(&disk, 50);
  std::map<std::pair<int64_t, int64_t>, std::size_t> reference;
  auto ref_count = [&](int64_t a, int64_t b) {
    auto it = reference.find({a, b});
    return it == reference.end() ? std::size_t{0} : it->second;
  };
  bool indexed0 = false;
  bool indexed1 = false;

  for (int step = 0; step < 2500; ++step) {
    const int64_t a = static_cast<int64_t>(rng.Uniform(12));
    const int64_t b = static_cast<int64_t>(rng.Uniform(6));
    const int op = static_cast<int>(rng.Uniform(100));
    if (op < 50) {
      ASSERT_TRUE(store.Insert(Row(a, b)).ok());
      ++reference[{a, b}];
    } else if (op < 85) {
      Status st = store.Remove(Row(a, b));
      if (ref_count(a, b) > 0) {
        ASSERT_TRUE(st.ok());
        if (--reference[{a, b}] == 0) reference.erase({a, b});
      } else {
        EXPECT_EQ(st.code(), StatusCode::kNotFound);
      }
    } else if (op < 90 && !indexed0) {
      store.EnsureProbeIndex(0);
      indexed0 = true;
    } else if (op < 95 && !indexed1) {
      store.EnsureProbeIndex(1);
      indexed1 = true;
    } else if (op == 99) {
      // Occasional full rebuild with the current reference contents.
      std::vector<Tuple> contents;
      for (const auto& [key, count] : reference) {
        for (std::size_t i = 0; i < count; ++i) {
          contents.push_back(Row(key.first, key.second));
        }
      }
      ASSERT_TRUE(store.Rebuild(contents).ok());
    }

    if (step % 250 == 249) {
      std::size_t total = 0;
      for (const auto& [key, count] : reference) total += count;
      ASSERT_EQ(store.size(), total) << "step " << step;
      // Contains agrees for every key in the domain.
      for (int64_t x = 0; x < 12; ++x) {
        for (int64_t y = 0; y < 6; ++y) {
          EXPECT_EQ(store.Contains(Row(x, y)), ref_count(x, y) > 0);
        }
      }
      if (indexed0) {
        for (int64_t x = 0; x < 12; ++x) {
          std::size_t expected = 0;
          for (int64_t y = 0; y < 6; ++y) expected += ref_count(x, y);
          EXPECT_EQ(ProbeCount(store, 0, x), expected)
              << "probe col 0 = " << x << " step " << step;
        }
      }
      if (indexed1) {
        for (int64_t y = 0; y < 6; ++y) {
          std::size_t expected = 0;
          for (int64_t x = 0; x < 12; ++x) expected += ref_count(x, y);
          EXPECT_EQ(ProbeCount(store, 1, y), expected);
        }
      }
      // ReadAll returns exactly the reference contents.
      Result<std::vector<Tuple>> all = store.ReadAll();
      ASSERT_TRUE(all.ok());
      std::vector<std::string> canon_store;
      for (const Tuple& t : all.ValueOrDie()) {
        canon_store.push_back(t.ToString());
      }
      std::sort(canon_store.begin(), canon_store.end());
      std::vector<std::string> canon_ref;
      for (const auto& [key, count] : reference) {
        for (std::size_t i = 0; i < count; ++i) {
          canon_ref.push_back(Row(key.first, key.second).ToString());
        }
      }
      std::sort(canon_ref.begin(), canon_ref.end());
      ASSERT_EQ(canon_store, canon_ref) << "step " << step;
    }
  }
}

// Fill, then remove most of the store, round after round: removals from
// long clusters (column 1 has only 8 values) make the index tables shift
// postings back on every seed, and CheckConsistency re-checks their
// structure after each round.
TEST_P(TupleStorePropertyTest, HeavyRemovalKeepsIndexesSound) {
  Rng rng(GetParam());
  CostMeter meter;
  storage::SimulatedDisk disk(1000, &meter);
  TupleStore store(&disk, 50);
  store.EnsureProbeIndex(1);
  std::vector<std::pair<int64_t, int64_t>> held;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 300; ++i) {
      const auto row = std::make_pair(static_cast<int64_t>(rng.Uniform(40)),
                                      static_cast<int64_t>(rng.Uniform(8)));
      ASSERT_TRUE(store.Insert(Row(row.first, row.second)).ok());
      held.push_back(row);
    }
    while (held.size() > 30) {
      const std::size_t victim = rng.Uniform(held.size());
      ASSERT_TRUE(store.Remove(Row(held[victim].first, held[victim].second))
                      .ok());
      held[victim] = held.back();
      held.pop_back();
    }
    const Status consistent = store.CheckConsistency();
    ASSERT_TRUE(consistent.ok()) << "round " << round << ": "
                                 << consistent.ToString();
    ASSERT_EQ(store.size(), held.size());
    for (int64_t y = 0; y < 8; ++y) {
      const auto expected = static_cast<std::size_t>(
          std::count_if(held.begin(), held.end(),
                        [y](const auto& row) { return row.second == y; }));
      EXPECT_EQ(ProbeCount(store, 1, y), expected) << "round " << round;
    }
    for (const auto& [x, y] : held) {
      EXPECT_TRUE(store.Contains(Row(x, y))) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleStorePropertyTest,
                         ::testing::Values(42, 43, 44, 45));

}  // namespace
}  // namespace procsim::ivm
