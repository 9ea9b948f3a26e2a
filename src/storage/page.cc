#include "storage/page.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace procsim::storage {

std::string RecordId::ToString() const {
  std::ostringstream out;
  out << "RecordId{" << page_id << "," << slot << "}";
  return out.str();
}

Page::Page(uint32_t page_size) : page_size_(page_size) {
  PROCSIM_CHECK_GT(page_size, 0u);
}

uint32_t Page::Append(const uint8_t* data, uint32_t stored, uint32_t size) {
  if (arena_.capacity() == 0 && stored < size) {
    // Padded records: size the arena for a page full of records shaped
    // like the first one.
    arena_.reserve(uint64_t{page_size_} * stored / size);
  } else if (garbage_ > 0 && arena_.size() + stored > arena_.capacity()) {
    Compact();  // reclaim garbage rather than grow the arena
  }
  // resize + memcpy rather than insert-from-pointer: GCC 12's
  // -Wstringop-overflow misfires on the latter (see AppendPod below).
  const auto offset = static_cast<uint32_t>(arena_.size());
  if (offset + stored > arena_.capacity()) {
    // Grow to fit, doubling up to the page size.  Live stored bytes never
    // exceed the page, so once garbage is compacted away an arena never
    // needs more than that: a B-tree node or hash bucket (one unpadded
    // record) holds about its own bytes, not B.
    arena_.reserve(std::max<uint64_t>(
        offset + stored,
        std::min<uint64_t>(2 * uint64_t{arena_.capacity()}, page_size_)));
  }
  arena_.resize(offset + stored);
  std::memcpy(arena_.data() + offset, data, stored);
  return offset;
}

void Page::MaybeCompact() {
  if (garbage_ > 0 && 2 * uint64_t{garbage_} >= arena_.size()) Compact();
}

void Page::Compact() {
  // Slide live stored bytes to the front in arena order; each move goes
  // down, so it never overwrites bytes still to be moved.
  std::vector<Slot*> live;
  live.reserve(live_count_);
  for (Slot& slot : slots_) {
    if (slot.live) live.push_back(&slot);
  }
  std::sort(live.begin(), live.end(),
            [](const Slot* a, const Slot* b) { return a->offset < b->offset; });
  uint32_t cursor = 0;
  for (Slot* slot : live) {
    std::memmove(arena_.data() + cursor, arena_.data() + slot->offset,
                 slot->stored);
    slot->offset = cursor;
    cursor += slot->stored;
  }
  arena_.resize(cursor);
  garbage_ = 0;
}

void Page::ShrinkToFit() {
  if (garbage_ > 0) Compact();
  arena_.shrink_to_fit();
  PROCSIM_AUDIT_OK(CheckConsistency());
}

Result<uint16_t> Page::Insert(const uint8_t* data, uint32_t stored,
                              uint32_t size) {
  PROCSIM_CHECK_GT(stored, 0u);
  PROCSIM_CHECK_LE(stored, size);
  if (!Fits(size)) {
    return Status::OutOfRange("record does not fit in page");
  }
  // Reuse the first tombstoned slot if there is one; otherwise append.
  uint16_t slot_index = slot_count();
  if (live_count_ < slot_count()) {
    for (uint16_t i = 0; i < slot_count(); ++i) {
      if (!slots_[i].live) {
        slot_index = i;
        break;
      }
    }
  }
  const Slot slot{Append(data, stored, size), stored, size, /*live=*/true};
  if (slot_index == slot_count()) {
    slots_.push_back(slot);
  } else {
    slots_[slot_index] = slot;
  }
  ++live_count_;
  used_ += size;
  PROCSIM_AUDIT_OK(CheckConsistency());
  return slot_index;
}

bool Page::IsLive(uint16_t slot) const {
  return slot < slots_.size() && slots_[slot].live;
}

Result<ByteView> Page::View(uint16_t slot) const {
  if (!IsLive(slot)) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  const Slot& s = slots_[slot];
  return ByteView(arena_.data() + s.offset, s.stored);
}

Status Page::Update(uint16_t slot, const uint8_t* data, uint32_t stored,
                    uint32_t size) {
  PROCSIM_CHECK_GT(stored, 0u);
  PROCSIM_CHECK_LE(stored, size);
  if (!IsLive(slot)) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  Slot& s = slots_[slot];
  // A record may always shrink; it may grow only into free space.
  if (size > FreeSpace() + s.size) {
    return Status::OutOfRange("updated record does not fit in page");
  }
  if (stored <= s.stored) {
    std::memcpy(arena_.data() + s.offset, data, stored);
    garbage_ += s.stored - stored;
  } else {
    // Release the old extent first so an append that compacts drops it.
    garbage_ += s.stored;
    s.live = false;
    s.offset = Append(data, stored, size);
    s.live = true;
  }
  s.stored = stored;
  used_ = used_ - s.size + size;
  s.size = size;
  MaybeCompact();
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Status Page::Delete(uint16_t slot) {
  if (!IsLive(slot)) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  garbage_ += slots_[slot].stored;
  used_ -= slots_[slot].size;
  slots_[slot] = Slot{};
  --live_count_;
  MaybeCompact();
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Status Page::CheckConsistency() const {
  uint16_t live = 0;
  uint64_t used = 0;
  uint64_t stored = 0;
  std::vector<std::pair<uint32_t, uint32_t>> extents;  // (offset, stored)
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (!slot.live) continue;
    ++live;
    used += slot.size;
    stored += slot.stored;
    if (slot.stored == 0 || slot.stored > slot.size) {
      return Status::Internal("live slot " + std::to_string(i) + " stores " +
                              std::to_string(slot.stored) +
                              " bytes of a record of logical size " +
                              std::to_string(slot.size));
    }
    if (static_cast<uint64_t>(slot.offset) + slot.stored > arena_.size()) {
      return Status::Internal(
          "slot " + std::to_string(i) + " extent [" +
          std::to_string(slot.offset) + ", " +
          std::to_string(slot.offset + slot.stored) +
          ") escapes the " + std::to_string(arena_.size()) + "-byte arena");
    }
    extents.emplace_back(slot.offset, slot.stored);
  }
  if (live != live_count_) {
    return Status::Internal("live slot directory count " +
                            std::to_string(live) + " != cached live_count " +
                            std::to_string(live_count_));
  }
  if (used != used_) {
    return Status::Internal("live payload bytes " + std::to_string(used) +
                            " != running count " + std::to_string(used_));
  }
  if (used > page_size_) {
    return Status::Internal("live payload bytes " + std::to_string(used) +
                            " exceed page size " + std::to_string(page_size_));
  }
  if (stored + garbage_ != arena_.size()) {
    return Status::Internal(
        "arena holds " + std::to_string(arena_.size()) + " bytes but " +
        std::to_string(stored) + " are live and " + std::to_string(garbage_) +
        " are garbage");
  }
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
      return Status::Internal("live payload extents overlap at offset " +
                              std::to_string(extents[i].first));
    }
  }
  return Status::OK();
}

namespace {

// resize + memcpy rather than insert-from-pointer: GCC 12's
// -Wstringop-overflow misfires on the latter when it inlines the vector
// growth path.
template <typename T>
void AppendPod(std::vector<uint8_t>* out, T value) {
  const std::size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
bool ReadPod(const std::vector<uint8_t>& in, std::size_t* cursor, T* value) {
  if (*cursor + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

}  // namespace

std::vector<uint8_t> Page::Serialize() const {
  std::vector<uint8_t> out;
  AppendPod<uint32_t>(&out, page_size_);
  AppendPod<uint16_t>(&out, slot_count());
  for (const Slot& slot : slots_) {
    AppendPod<uint32_t>(&out, slot.size);
    AppendPod<uint8_t>(&out, slot.live ? 1 : 0);
  }
  for (const Slot& slot : slots_) {
    if (!slot.live) continue;
    const std::size_t offset = out.size();
    out.resize(offset + slot.size, 0);  // the zero tail past the stored bytes
    std::memcpy(out.data() + offset, arena_.data() + slot.offset, slot.stored);
  }
  return out;
}

Result<Page> Page::Deserialize(const std::vector<uint8_t>& bytes) {
  std::size_t cursor = 0;
  uint32_t page_size = 0;
  uint16_t slot_count = 0;
  if (!ReadPod(bytes, &cursor, &page_size) ||
      !ReadPod(bytes, &cursor, &slot_count)) {
    return Status::InvalidArgument("truncated page header");
  }
  Page page(page_size);
  struct Entry {
    uint32_t size;
    bool live;
  };
  std::vector<Entry> entries(slot_count);
  for (auto& entry : entries) {
    uint8_t live = 0;
    if (!ReadPod(bytes, &cursor, &entry.size) ||
        !ReadPod(bytes, &cursor, &live)) {
      return Status::InvalidArgument("truncated slot directory");
    }
    entry.live = live != 0;
  }
  // Rebuild the slot directory directly (Insert would renumber slots by
  // reusing tombstones, breaking RecordId stability).  Every logical byte
  // is stored: the image does not say which trailing zeros were padding.
  uint64_t used = 0;
  for (const auto& entry : entries) {
    if (entry.live) used += entry.size;
  }
  if (used > page_size) {
    return Status::InvalidArgument("page payload overflow");
  }
  if (used > bytes.size() - cursor) {
    return Status::InvalidArgument("truncated payload");
  }
  page.arena_.reserve(used);
  page.used_ = static_cast<uint32_t>(used);
  for (const auto& entry : entries) {
    if (!entry.live) {
      page.slots_.push_back(Slot{});
      continue;
    }
    if (entry.size == 0) {
      return Status::InvalidArgument("empty live record");
    }
    page.slots_.push_back(
        Slot{page.Append(bytes.data() + cursor, entry.size, entry.size),
             entry.size, entry.size, /*live=*/true});
    ++page.live_count_;
    cursor += entry.size;
  }
  return page;
}

}  // namespace procsim::storage
