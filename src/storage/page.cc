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
  heap_.resize(page_size_, 0);
  free_end_ = page_size_;
}

uint32_t Page::BytesUsed() const {
  uint32_t used = 0;
  for (const Slot& slot : slots_) {
    if (slot.live) used += slot.size;
  }
  return used;
}

uint32_t Page::FreeSpace() const { return page_size_ - BytesUsed(); }

bool Page::Fits(uint32_t size) const { return size <= FreeSpace(); }

void Page::Compact() {
  // Rewrite live payloads contiguously at the back of the arena.
  std::vector<uint8_t> new_heap(page_size_, 0);
  uint32_t cursor = page_size_;
  for (Slot& slot : slots_) {
    if (!slot.live) continue;
    cursor -= slot.size;
    std::memcpy(new_heap.data() + cursor, heap_.data() + slot.offset,
                slot.size);
    slot.offset = cursor;
  }
  heap_ = std::move(new_heap);
  free_end_ = cursor;
}

Result<uint16_t> Page::Insert(const uint8_t* data, uint32_t size) {
  PROCSIM_CHECK_GT(size, 0u);
  if (!Fits(size)) {
    return Status::OutOfRange("record does not fit in page");
  }
  if (free_end_ < size) Compact();
  PROCSIM_CHECK_GE(free_end_, size);
  free_end_ -= size;
  std::memcpy(heap_.data() + free_end_, data, size);
  // Reuse a tombstoned slot if available; otherwise append.
  uint16_t slot_index = slot_count();
  for (uint16_t i = 0; i < slot_count(); ++i) {
    if (!slots_[i].live) {
      slot_index = i;
      break;
    }
  }
  if (slot_index == slot_count()) {
    slots_.push_back(Slot{free_end_, size, /*live=*/true});
  } else {
    slots_[slot_index] = Slot{free_end_, size, /*live=*/true};
  }
  ++live_count_;
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
  return ByteView(heap_.data() + s.offset, s.size);
}

Status Page::Update(uint16_t slot, const uint8_t* data, uint32_t size) {
  if (!IsLive(slot)) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  Slot& s = slots_[slot];
  if (size <= s.size) {
    // Shrink (or equal) in place.
    std::memcpy(heap_.data() + s.offset, data, size);
    s.size = size;
    PROCSIM_AUDIT_OK(CheckConsistency());
    return Status::OK();
  }
  // Grows: check capacity excluding the old copy, then reinsert.
  if (size > FreeSpace() + s.size) {
    return Status::OutOfRange("updated record does not fit in page");
  }
  s.live = false;  // release old extent before compaction
  if (free_end_ < size) Compact();
  free_end_ -= size;
  std::memcpy(heap_.data() + free_end_, data, size);
  s = Slot{free_end_, size, /*live=*/true};
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Status Page::Delete(uint16_t slot) {
  if (!IsLive(slot)) {
    return Status::NotFound("no live record in slot " + std::to_string(slot));
  }
  slots_[slot].live = false;
  slots_[slot].size = 0;
  --live_count_;
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Status Page::CheckConsistency() const {
  if (heap_.size() != page_size_) {
    return Status::Internal("page arena size " + std::to_string(heap_.size()) +
                            " != page size " + std::to_string(page_size_));
  }
  uint16_t live = 0;
  uint64_t used = 0;
  std::vector<std::pair<uint32_t, uint32_t>> extents;  // (offset, size)
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (!slot.live) continue;
    ++live;
    used += slot.size;
    if (slot.size == 0) {
      return Status::Internal("live slot " + std::to_string(i) +
                              " has zero size");
    }
    if (slot.offset < free_end_ ||
        static_cast<uint64_t>(slot.offset) + slot.size > page_size_) {
      return Status::Internal(
          "slot " + std::to_string(i) + " extent [" +
          std::to_string(slot.offset) + ", " +
          std::to_string(slot.offset + slot.size) +
          ") escapes the payload arena [" + std::to_string(free_end_) + ", " +
          std::to_string(page_size_) + ")");
    }
    extents.emplace_back(slot.offset, slot.size);
  }
  if (live != live_count_) {
    return Status::Internal("live slot directory count " +
                            std::to_string(live) + " != cached live_count " +
                            std::to_string(live_count_));
  }
  if (used > page_size_) {
    return Status::Internal("live payload bytes " + std::to_string(used) +
                            " exceed page size " + std::to_string(page_size_));
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
    out.insert(out.end(), heap_.begin() + slot.offset,
               heap_.begin() + slot.offset + slot.size);
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
  // reusing tombstones, breaking RecordId stability).
  for (const auto& entry : entries) {
    if (entry.live) {
      if (cursor + entry.size > bytes.size()) {
        return Status::InvalidArgument("truncated payload");
      }
      if (page.free_end_ < entry.size) {
        return Status::InvalidArgument("page payload overflow");
      }
      page.free_end_ -= entry.size;
      std::memcpy(page.heap_.data() + page.free_end_, bytes.data() + cursor,
                  entry.size);
      page.slots_.push_back(Slot{page.free_end_, entry.size, /*live=*/true});
      ++page.live_count_;
      cursor += entry.size;
    } else {
      page.slots_.push_back(Slot{0, 0, /*live=*/false});
    }
  }
  return page;
}

}  // namespace procsim::storage
