#include "storage/page.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "util/rng.h"

namespace procsim::storage {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// The record in `slot`, copied out of the page's view for comparison.
std::vector<uint8_t> Copied(const Page& page, uint16_t slot) {
  const ByteView view = page.View(slot).ValueOrDie();
  return std::vector<uint8_t>(view.begin(), view.end());
}

TEST(PageTest, InsertAndRead) {
  Page page(256);
  const auto record = Bytes("hello");
  Result<uint16_t> slot = page.Insert(record.data(), record.size());
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page.View(slot.ValueOrDie()).ok());
  EXPECT_EQ(Copied(page, slot.ValueOrDie()), record);
  EXPECT_EQ(page.live_count(), 1);
}

TEST(PageTest, CapacityCountsPayloadOnly) {
  // A 4000-byte page holds exactly 40 100-byte records (paper's B/S).
  Page page(4000);
  std::vector<uint8_t> record(100, 0xab);
  for (int i = 0; i < 40; ++i) {
    Result<uint16_t> slot = page.Insert(record.data(), record.size());
    ASSERT_TRUE(slot.ok()) << "record " << i;
    EXPECT_EQ(slot.ValueOrDie(), i);
  }
  EXPECT_FALSE(page.Fits(100));
  Result<uint16_t> overflow = page.Insert(record.data(), record.size());
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  // The 40th record (slot 39, payload at offset 0) must still be readable —
  // regression test for the offset-0 tombstone-sentinel bug.
  EXPECT_TRUE(page.IsLive(39));
  EXPECT_TRUE(page.View(39).ok());
}

TEST(PageTest, DeleteTombstonesAndReusesSlot) {
  Page page(256);
  const auto a = Bytes("aaaa");
  const auto b = Bytes("bbbb");
  uint16_t slot_a = page.Insert(a.data(), a.size()).ValueOrDie();
  uint16_t slot_b = page.Insert(b.data(), b.size()).ValueOrDie();
  ASSERT_TRUE(page.Delete(slot_a).ok());
  EXPECT_FALSE(page.IsLive(slot_a));
  EXPECT_TRUE(page.IsLive(slot_b));
  EXPECT_EQ(page.live_count(), 1);
  EXPECT_EQ(page.View(slot_a).status().code(), StatusCode::kNotFound);
  // Next insert reuses the tombstoned slot; slot_b is untouched.
  const auto c = Bytes("cccc");
  uint16_t slot_c = page.Insert(c.data(), c.size()).ValueOrDie();
  EXPECT_EQ(slot_c, slot_a);
  EXPECT_EQ(Copied(page, slot_b), b);
}

TEST(PageTest, DoubleDeleteFails) {
  Page page(128);
  const auto a = Bytes("x");
  uint16_t slot = page.Insert(a.data(), a.size()).ValueOrDie();
  ASSERT_TRUE(page.Delete(slot).ok());
  EXPECT_FALSE(page.Delete(slot).ok());
}

TEST(PageTest, UpdateInPlaceSameSize) {
  Page page(128);
  const auto a = Bytes("aaaa");
  const auto b = Bytes("bbbb");
  uint16_t slot = page.Insert(a.data(), a.size()).ValueOrDie();
  ASSERT_TRUE(page.Update(slot, b.data(), b.size()).ok());
  EXPECT_EQ(Copied(page, slot), b);
}

TEST(PageTest, UpdateGrowingRecordCompacts) {
  Page page(64);
  const auto a = Bytes("aaaaaaaa");
  const auto b = Bytes("bbbbbbbb");
  uint16_t slot_a = page.Insert(a.data(), a.size()).ValueOrDie();
  uint16_t slot_b = page.Insert(b.data(), b.size()).ValueOrDie();
  ASSERT_TRUE(page.Delete(slot_b).ok());
  // Grow a to 48 bytes: requires compaction to make contiguous room.
  std::vector<uint8_t> big(48, 0xcd);
  ASSERT_TRUE(page.Update(slot_a, big.data(), big.size()).ok());
  EXPECT_EQ(Copied(page, slot_a), big);
}

TEST(PageTest, UpdateThatCannotFitFails) {
  Page page(32);
  const auto a = Bytes("aaaa");
  uint16_t slot = page.Insert(a.data(), a.size()).ValueOrDie();
  std::vector<uint8_t> big(64, 1);
  Status st = page.Update(slot, big.data(), big.size());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  // Original record is preserved on failure.
  EXPECT_EQ(Copied(page, slot), a);
}

TEST(PageTest, FreeSpaceReclaimedAfterDeleteAndCompaction) {
  Page page(100);
  std::vector<uint8_t> record(20, 7);
  std::vector<uint16_t> slots;
  for (int i = 0; i < 5; ++i) {
    slots.push_back(page.Insert(record.data(), record.size()).ValueOrDie());
  }
  EXPECT_FALSE(page.Fits(20));
  ASSERT_TRUE(page.Delete(slots[1]).ok());
  ASSERT_TRUE(page.Delete(slots[3]).ok());
  EXPECT_TRUE(page.Fits(40));
  // Two more 20-byte records fit again (requires compaction internally).
  EXPECT_TRUE(page.Insert(record.data(), record.size()).ok());
  EXPECT_TRUE(page.Insert(record.data(), record.size()).ok());
  EXPECT_FALSE(page.Fits(20));
}

TEST(PageTest, SerializeRoundTripPreservesSlotsAndTombstones) {
  Page page(256);
  const auto a = Bytes("alpha");
  const auto b = Bytes("bravo");
  const auto c = Bytes("charlie");
  uint16_t slot_a = page.Insert(a.data(), a.size()).ValueOrDie();
  uint16_t slot_b = page.Insert(b.data(), b.size()).ValueOrDie();
  uint16_t slot_c = page.Insert(c.data(), c.size()).ValueOrDie();
  ASSERT_TRUE(page.Delete(slot_b).ok());

  Result<Page> restored = Page::Deserialize(page.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Page& copy = restored.ValueOrDie();
  EXPECT_EQ(copy.live_count(), 2);
  EXPECT_EQ(Copied(copy, slot_a), a);
  EXPECT_FALSE(copy.IsLive(slot_b));
  EXPECT_EQ(Copied(copy, slot_c), c);
}

TEST(PageTest, DeserializeRejectsTruncatedInput) {
  Page page(64);
  const auto a = Bytes("data");
  (void)page.Insert(a.data(), a.size());
  std::vector<uint8_t> bytes = page.Serialize();
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(Page::Deserialize(bytes).ok());
  bytes.resize(3);
  EXPECT_FALSE(Page::Deserialize(bytes).ok());
}

// Randomized property test: a page behaves like a map<slot, record> under a
// random insert/delete/update workload.
TEST(PagePropertyTest, MatchesReferenceModel) {
  Rng rng(2024);
  Page page(512);
  std::vector<std::pair<uint16_t, std::vector<uint8_t>>> model;
  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      std::vector<uint8_t> record(1 + rng.Uniform(24));
      for (auto& byte : record) byte = static_cast<uint8_t>(rng.Next());
      Result<uint16_t> slot = page.Insert(record.data(), record.size());
      if (slot.ok()) model.emplace_back(slot.ValueOrDie(), record);
    } else if (op == 1 && !model.empty()) {
      const std::size_t pick = rng.Uniform(model.size());
      ASSERT_TRUE(page.Delete(model[pick].first).ok());
      model.erase(model.begin() + pick);
    } else if (op == 2 && !model.empty()) {
      const std::size_t pick = rng.Uniform(model.size());
      std::vector<uint8_t> record(1 + rng.Uniform(24));
      for (auto& byte : record) byte = static_cast<uint8_t>(rng.Next());
      if (page.Update(model[pick].first, record.data(), record.size()).ok()) {
        model[pick].second = record;
      }
    }
    // Periodic full validation.
    if (step % 250 == 0) {
      EXPECT_EQ(page.live_count(), model.size());
      uint32_t used = 0;
      for (const auto& [slot, record] : model) {
        ASSERT_TRUE(page.IsLive(slot));
        EXPECT_EQ(Copied(page, slot), record);
        used += static_cast<uint32_t>(record.size());
      }
      EXPECT_EQ(page.FreeSpace(), page.page_size() - used);
    }
  }
}

}  // namespace
}  // namespace procsim::storage
