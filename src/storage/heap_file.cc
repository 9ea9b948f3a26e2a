#include "storage/heap_file.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/logging.h"

namespace procsim::storage {

HeapFile::HeapFile(SimulatedDisk* disk) : disk_(disk) {
  PROCSIM_CHECK(disk != nullptr);
}

Status HeapFile::CheckConsistency() const {
  MeteringGuard guard(disk_);
  std::unordered_set<PageId> seen;
  std::size_t live = 0;
  for (PageId page_id : pages_) {
    if (!seen.insert(page_id).second) {
      return Status::Internal("heap file lists page " +
                              std::to_string(page_id) + " twice");
    }
    Result<Page*> page = disk_->ReadPage(page_id);
    if (!page.ok()) return page.status();
    PROCSIM_RETURN_IF_ERROR(page.ValueOrDie()->CheckConsistency());
    live += page.ValueOrDie()->live_count();
  }
  if (live != record_count_) {
    return Status::Internal("heap file pages hold " + std::to_string(live) +
                            " live records but record_count() is " +
                            std::to_string(record_count_));
  }
  return Status::OK();
}

namespace {

// A record's stored bytes and its logical size, which is never less.
struct RecordSizes {
  uint32_t stored;
  uint32_t size;
};

RecordSizes SizesOf(std::span<const uint8_t> record,
                    std::size_t logical_size) {
  return {static_cast<uint32_t>(record.size()),
          static_cast<uint32_t>(std::max(record.size(), logical_size))};
}

}  // namespace

Result<RecordId> HeapFile::Insert(std::span<const uint8_t> record,
                                  std::size_t logical_size) {
  PROCSIM_CHECK(!record.empty());
  const auto [stored, size] = SizesOf(record, logical_size);
  if (!pages_.empty()) {
    const PageId last = pages_.back();
    Result<Page*> page = disk_->ReadPage(last);
    if (!page.ok()) return page.status();
    if (page.ValueOrDie()->Fits(size)) {
      Result<uint16_t> slot =
          page.ValueOrDie()->Insert(record.data(), stored, size);
      if (!slot.ok()) return slot.status();
      PROCSIM_RETURN_IF_ERROR(disk_->MarkDirty(last));
      ++record_count_;
      PROCSIM_AUDIT_OK(CheckConsistency());
      return RecordId{last, slot.ValueOrDie()};
    }
  }
  const PageId fresh = disk_->AllocatePage();
  pages_.push_back(fresh);
  Result<Page*> page = disk_->ReadPage(fresh);
  if (!page.ok()) return page.status();
  Result<uint16_t> slot =
      page.ValueOrDie()->Insert(record.data(), stored, size);
  if (!slot.ok()) return slot.status();
  PROCSIM_RETURN_IF_ERROR(disk_->MarkDirty(fresh));
  ++record_count_;
  PROCSIM_AUDIT_OK(CheckConsistency());
  return RecordId{fresh, slot.ValueOrDie()};
}

Result<ByteView> HeapFile::Read(RecordId rid) const {
  Result<Page*> page = disk_->ReadPage(rid.page_id);
  if (!page.ok()) return page.status();
  return page.ValueOrDie()->View(rid.slot);
}

Status HeapFile::Update(RecordId rid, std::span<const uint8_t> record,
                        std::size_t logical_size) {
  const auto [stored, size] = SizesOf(record, logical_size);
  Result<Page*> page = disk_->ReadPage(rid.page_id);
  if (!page.ok()) return page.status();
  PROCSIM_RETURN_IF_ERROR(
      page.ValueOrDie()->Update(rid.slot, record.data(), stored, size));
  return disk_->MarkDirty(rid.page_id);
}

Status HeapFile::Delete(RecordId rid) {
  Result<Page*> page = disk_->ReadPage(rid.page_id);
  if (!page.ok()) return page.status();
  PROCSIM_RETURN_IF_ERROR(page.ValueOrDie()->Delete(rid.slot));
  PROCSIM_RETURN_IF_ERROR(disk_->MarkDirty(rid.page_id));
  --record_count_;
  PROCSIM_AUDIT_OK(CheckConsistency());
  return Status::OK();
}

Status HeapFile::FreePages() {
  for (PageId page_id : pages_) {
    PROCSIM_RETURN_IF_ERROR(disk_->FreePage(page_id));
  }
  pages_.clear();
  record_count_ = 0;
  return Status::OK();
}

Status HeapFile::Scan(
    const std::function<bool(RecordId, ByteView)>& fn) const {
  for (PageId page_id : pages_) {
    Result<Page*> page = disk_->ReadPage(page_id);
    if (!page.ok()) return page.status();
    const Page* p = page.ValueOrDie();
    for (uint16_t slot = 0; slot < p->slot_count(); ++slot) {
      if (!p->IsLive(slot)) continue;
      Result<ByteView> bytes = p->View(slot);
      if (!bytes.ok()) return bytes.status();
      if (!fn(RecordId{page_id, slot}, bytes.ValueOrDie())) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace procsim::storage
