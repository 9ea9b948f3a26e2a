#include "storage/page.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
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

// A record that stores all its bytes (a B-tree node, a hash bucket) gets an
// arena about its own size, growing by doubling up to the page; a padded
// record's first append still reserves a page full of records like it.
TEST(PageTest, ArenaHoldsAboutWhatThePageStores) {
  constexpr uint32_t kPageSize = 4000;
  Page node(kPageSize);
  std::vector<uint8_t> image(100, 0xab);
  const uint16_t slot = node.Insert(image.data(), 100).ValueOrDie();
  EXPECT_EQ(node.resident_bytes(), 100u);
  for (uint32_t size = 114; size <= 2809; size += 14) {
    image.assign(size, 0xcd);
    ASSERT_TRUE(node.Update(slot, image.data(), size).ok());
    ASSERT_LE(node.resident_bytes(), std::min(2 * size, kPageSize)) << size;
    ASSERT_EQ(Copied(node, slot), image);
  }
  EXPECT_EQ(node.FreeSpace(), kPageSize - image.size());

  Page heap(kPageSize);
  const std::vector<uint8_t> tuple(30, 0x11);
  ASSERT_TRUE(heap.Insert(tuple.data(), 30, 100).ok());
  EXPECT_EQ(heap.resident_bytes(), kPageSize * 30 / 100);
  for (int i = 1; i < 40; ++i) {
    ASSERT_TRUE(heap.Insert(tuple.data(), 30, 100).ok());
  }
  EXPECT_EQ(heap.resident_bytes(), kPageSize * 30 / 100);  // no regrowth
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

// ---------------------------------------------------------------------------
// Differential test: a page that stores only each record's stored bytes must
// be indistinguishable, through its whole public surface, from a page that
// stores every logical byte with the padding written out as zeros.

// The reference: each slot keeps its full logical record, padding included.
class PaddedPageModel {
 public:
  explicit PaddedPageModel(uint32_t page_size) : page_size_(page_size) {}

  uint16_t slot_count() const { return static_cast<uint16_t>(slots_.size()); }
  uint16_t live_count() const {
    return static_cast<uint16_t>(std::count_if(
        slots_.begin(), slots_.end(), [](const Record& r) { return r.live; }));
  }
  bool IsLive(uint16_t slot) const {
    return slot < slots_.size() && slots_[slot].live;
  }
  uint32_t size(uint16_t slot) const {
    return static_cast<uint32_t>(slots_[slot].bytes.size());
  }
  uint32_t FreeSpace() const {
    uint32_t used = 0;
    for (const Record& r : slots_) {
      if (r.live) used += static_cast<uint32_t>(r.bytes.size());
    }
    return page_size_ - used;
  }
  bool Fits(uint32_t size) const { return size <= FreeSpace(); }

  std::optional<uint16_t> Insert(const std::vector<uint8_t>& stored,
                                 uint32_t size) {
    if (!Fits(size)) return std::nullopt;
    uint16_t slot = slot_count();
    for (uint16_t i = 0; i < slot_count(); ++i) {
      if (!slots_[i].live) {
        slot = i;
        break;
      }
    }
    if (slot == slot_count()) slots_.emplace_back();
    slots_[slot] = Record{true, stored, Padded(stored, size)};
    return slot;
  }

  bool Update(uint16_t slot, const std::vector<uint8_t>& stored,
              uint32_t size) {
    // Shrinking always fits; growing needs the free space.
    if (size > FreeSpace() + this->size(slot)) return false;
    slots_[slot] = Record{true, stored, Padded(stored, size)};
    return true;
  }

  void Delete(uint16_t slot) { slots_[slot] = Record{}; }

  const std::vector<uint8_t>& stored(uint16_t slot) const {
    return slots_[slot].stored;
  }

  // Header, then (size, live) per slot, then live payloads in slot order.
  std::vector<uint8_t> Serialize() const {
    std::vector<uint8_t> out;
    Append(&out, page_size_);
    Append(&out, slot_count());
    for (const Record& r : slots_) {
      Append(&out, static_cast<uint32_t>(r.bytes.size()));
      Append(&out, static_cast<uint8_t>(r.live ? 1 : 0));
    }
    for (const Record& r : slots_) {
      if (r.live) out.insert(out.end(), r.bytes.begin(), r.bytes.end());
    }
    return out;
  }

 private:
  struct Record {
    bool live = false;
    std::vector<uint8_t> stored;
    std::vector<uint8_t> bytes;  // logical record: stored bytes, then zeros
  };

  static std::vector<uint8_t> Padded(std::vector<uint8_t> stored,
                                     uint32_t size) {
    stored.resize(size, 0);
    return stored;
  }

  template <typename T>
  static void Append(std::vector<uint8_t>* out, T value) {
    const std::size_t offset = out->size();
    out->resize(offset + sizeof(T));
    std::memcpy(out->data() + offset, &value, sizeof(T));
  }

  uint32_t page_size_;
  std::vector<Record> slots_;
};

// Records of 1..stored bytes, none of them zero, so a lost or shifted byte
// cannot pass for padding.
std::vector<uint8_t> RandomBytes(Rng* rng, uint32_t stored) {
  std::vector<uint8_t> bytes(stored);
  for (auto& byte : bytes) byte = static_cast<uint8_t>(1 + rng->Uniform(255));
  return bytes;
}

// Half the records store all their bytes (index nodes); the rest store a
// random prefix and account the remainder as padding (paper-width tuples).
uint32_t StoredFor(Rng* rng, uint32_t size) {
  return rng->Bernoulli(0.5) ? size
                             : 1 + static_cast<uint32_t>(rng->Uniform(size));
}

void ExpectSamePage(const Page& page, const PaddedPageModel& model) {
  ASSERT_TRUE(page.CheckConsistency().ok())
      << page.CheckConsistency().ToString();
  ASSERT_EQ(page.FreeSpace(), model.FreeSpace());
  ASSERT_EQ(page.slot_count(), model.slot_count());
  ASSERT_EQ(page.live_count(), model.live_count());
  for (uint32_t size : {1u, page.FreeSpace(), page.FreeSpace() + 1}) {
    ASSERT_EQ(page.Fits(size), model.Fits(size)) << "size " << size;
  }
  for (uint16_t slot = 0; slot <= page.slot_count(); ++slot) {
    ASSERT_EQ(page.IsLive(slot), model.IsLive(slot)) << "slot " << slot;
    if (!model.IsLive(slot)) {
      ASSERT_EQ(page.View(slot).status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_EQ(Copied(page, slot), model.stored(slot)) << "slot " << slot;
  }
  ASSERT_EQ(page.Serialize(), model.Serialize());
}

TEST(PageDifferentialTest, MatchesPaddedStorageModel) {
  constexpr uint32_t kPageSize = 1000;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Page page(kPageSize);
    PaddedPageModel model(kPageSize);
    std::size_t updates_out_of_range = 0;
    std::size_t tombstones_reused = 0;
    for (int step = 0; step < 3000; ++step) {
      std::vector<uint16_t> live;
      for (uint16_t slot = 0; slot < model.slot_count(); ++slot) {
        if (model.IsLive(slot)) live.push_back(slot);
      }
      const uint64_t op = rng.Uniform(10);
      if (op < 4 || live.empty()) {
        // Insert, now and then one too big for the free space.
        const uint32_t size =
            rng.Bernoulli(0.1)
                ? model.FreeSpace() + 1 + static_cast<uint32_t>(rng.Uniform(50))
                : 1 + static_cast<uint32_t>(rng.Uniform(120));
        const std::vector<uint8_t> stored =
            RandomBytes(&rng, StoredFor(&rng, std::min(size, 200u)));
        const uint32_t logical =
            std::max(size, static_cast<uint32_t>(stored.size()));
        const bool reuses = model.live_count() < model.slot_count();
        const std::optional<uint16_t> expected = model.Insert(stored, logical);
        Result<uint16_t> slot = page.Insert(
            stored.data(), static_cast<uint32_t>(stored.size()), logical);
        ASSERT_EQ(slot.ok(), expected.has_value()) << "step " << step;
        if (expected.has_value()) {
          ASSERT_EQ(slot.ValueOrDie(), *expected);
          if (reuses) ++tombstones_reused;
        } else {
          ASSERT_EQ(slot.status().code(), StatusCode::kOutOfRange);
        }
      } else if (op < 8) {
        // Update that shrinks, keeps the size, grows, or grows past what
        // the page can hold.
        const uint16_t slot = live[rng.Uniform(live.size())];
        const uint32_t old_size = model.size(slot);
        const uint32_t room = model.FreeSpace() + old_size;
        uint32_t size = old_size;
        switch (rng.Uniform(4)) {
          case 0:
            size = 1 + static_cast<uint32_t>(rng.Uniform(old_size));
            break;
          case 1:
            break;
          case 2: {
            const uint32_t headroom = std::min(room - old_size, 120u);
            if (headroom > 0) {
              size = old_size + 1 + static_cast<uint32_t>(rng.Uniform(headroom));
            }
            break;
          }
          default:
            size = room + 1 + static_cast<uint32_t>(rng.Uniform(50));
            break;
        }
        const std::vector<uint8_t> stored =
            RandomBytes(&rng, StoredFor(&rng, size));
        const bool expected = model.Update(slot, stored, size);
        const Status status = page.Update(
            slot, stored.data(), static_cast<uint32_t>(stored.size()), size);
        ASSERT_EQ(status.ok(), expected) << "step " << step;
        if (!expected) {
          ASSERT_EQ(status.code(), StatusCode::kOutOfRange);
          ++updates_out_of_range;
        }
      } else {
        const uint16_t slot = live[rng.Uniform(live.size())];
        model.Delete(slot);
        ASSERT_TRUE(page.Delete(slot).ok());
      }
      ExpectSamePage(page, model);
      // Garbage is compacted away: the arena never runs past twice the
      // page, however much churn the page has seen.
      ASSERT_LE(page.resident_bytes(), 2u * kPageSize) << "step " << step;
      if (step % 100 == 0) {
        // A page rebuilt from the image stores every logical byte but is
        // the same page.
        Result<Page> reloaded = Page::Deserialize(page.Serialize());
        ASSERT_TRUE(reloaded.ok());
        ASSERT_EQ(reloaded.ValueOrDie().Serialize(), model.Serialize());
      }
    }
    EXPECT_GT(updates_out_of_range, 0u);
    EXPECT_GT(tombstones_reused, 0u);
  }
}

}  // namespace
}  // namespace procsim::storage
