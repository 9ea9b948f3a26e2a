#include "storage/disk.h"

#include <bit>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/logging.h"

namespace procsim::storage {
namespace {

obs::Counter* const g_reads =
    obs::GlobalMetrics().RegisterCounter("storage.disk.reads");
obs::Counter* const g_writes =
    obs::GlobalMetrics().RegisterCounter("storage.disk.writes");
obs::Counter* const g_pages_allocated =
    obs::GlobalMetrics().RegisterCounter("storage.disk.pages_allocated");
obs::Counter* const g_pages_freed =
    obs::GlobalMetrics().RegisterCounter("storage.disk.pages_freed");

Status NoSuchPage(PageId page_id) {
  return Status::NotFound("page " + std::to_string(page_id) +
                          " does not exist or was freed");
}

/// Per-(thread, disk) accounting state: the open access scope's dedup sets
/// and the MeteringGuard disable depth.  Keyed by disk so a thread juggling
/// two databases (e.g. a test building a second harness) keeps them apart;
/// linear scan because a thread touches one or two disks, ever.
struct ThreadDiskState {
  const SimulatedDisk* disk = nullptr;
  bool in_scope = false;
  int metering_disable_depth = 0;
  std::set<PageId> scope_reads;
  std::set<PageId> scope_writes;
};

thread_local std::vector<ThreadDiskState> t_disk_states;
// The state StateFor found last, so every page access after the first
// skips the scan.  Plain pointers: unlike the vector, reading them needs
// no thread_local initialization check.
thread_local const SimulatedDisk* t_last_disk = nullptr;
thread_local ThreadDiskState* t_last_state = nullptr;

ThreadDiskState& StateFor(const SimulatedDisk* disk) {
  if (t_last_disk == disk) return *t_last_state;
  ThreadDiskState* found = nullptr;
  for (ThreadDiskState& state : t_disk_states) {
    if (state.disk == disk) found = &state;
  }
  if (found == nullptr) {
    t_disk_states.push_back(ThreadDiskState{});  // may move the others
    found = &t_disk_states.back();
    found->disk = disk;
  }
  t_last_disk = disk;
  t_last_state = found;
  return *found;
}

void DropStateFor(const SimulatedDisk* disk) {
  t_last_disk = nullptr;
  t_last_state = nullptr;
  for (std::size_t i = 0; i < t_disk_states.size(); ++i) {
    if (t_disk_states[i].disk == disk) {
      t_disk_states.erase(t_disk_states.begin() +
                          static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace

SimulatedDisk::SimulatedDisk(uint32_t page_size, CostMeter* meter)
    : page_size_(page_size), meter_(meter) {
  PROCSIM_CHECK_GT(page_size, 0u);
}

SimulatedDisk::~SimulatedDisk() {
  // Drop this thread's slot so a later disk at the same address starts
  // clean.  Other threads' slots are reset lazily by their own scopes.
  DropStateFor(this);
  const std::size_t count = page_count_.load(std::memory_order_relaxed);
  for (std::size_t id = 0; id < count; ++id) {
    delete Lookup(static_cast<PageId>(id));
  }
  for (std::atomic<PageSlot*>& chunk : chunks_) {
    // The slots' atomics are trivially destructible.
    ::operator delete(chunk.load(std::memory_order_relaxed));
  }
}

std::size_t SimulatedDisk::page_count() const {
  return page_count_.load(std::memory_order_acquire);
}

std::size_t SimulatedDisk::live_page_count() const {
  return live_pages_.load(std::memory_order_acquire);
}

std::size_t SimulatedDisk::resident_bytes() const {
  std::size_t bytes = 0;
  const std::size_t count = page_count();
  for (std::size_t id = 0; id < count; ++id) {
    if (const Page* page = Lookup(static_cast<PageId>(id))) {
      bytes += page->resident_bytes();
    }
  }
  return bytes;
}

static_assert(std::has_single_bit(SimulatedDisk::kFirstChunkPages));
// The last id AllocatePage hands out, kInvalidPageId - 1, has a chunk.
static_assert(std::bit_width(uint64_t{kInvalidPageId} - 1 +
                             SimulatedDisk::kFirstChunkPages) -
                  std::bit_width(SimulatedDisk::kFirstChunkPages) <
              static_cast<int>(SimulatedDisk::kChunks));

SimulatedDisk::SlotIndex SimulatedDisk::Locate(PageId page_id) {
  // Chunk k covers ids [F (2^k - 1), F (2^(k+1) - 1)) for F =
  // kFirstChunkPages, so id + F has k more significant bits than F.
  const uint64_t shifted = uint64_t{page_id} + kFirstChunkPages;
  const auto chunk = static_cast<std::size_t>(
      std::bit_width(shifted) - std::bit_width(kFirstChunkPages));
  return SlotIndex{chunk, static_cast<std::size_t>(
                              shifted - (uint64_t{kFirstChunkPages} << chunk))};
}

Page* SimulatedDisk::Lookup(PageId page_id) const {
  // Slots at and past page_count_ may not be constructed yet.
  if (page_id >= page_count_.load(std::memory_order_acquire)) return nullptr;
  const SlotIndex at = Locate(page_id);
  const PageSlot* chunk = chunks_[at.chunk].load(std::memory_order_acquire);
  return chunk[at.offset].load(std::memory_order_acquire);
}

bool SimulatedDisk::IsLive(PageId page_id) const {
  return Lookup(page_id) != nullptr;
}

bool SimulatedDisk::metering_enabled() const {
  return StateFor(this).metering_disable_depth == 0;
}

PageId SimulatedDisk::AllocatePage() {
  PageId page_id;
  {
    util::RankedLockGuard guard(page_table_latch_);
    const std::size_t id = page_count_.load(std::memory_order_relaxed);
    PROCSIM_CHECK_LT(id, std::size_t{kInvalidPageId}) << "out of page ids";
    const SlotIndex at = Locate(static_cast<PageId>(id));
    std::atomic<PageSlot*>& chunk_slot = chunks_[at.chunk];
    PageSlot* chunk = chunk_slot.load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = static_cast<PageSlot*>(::operator new(
          (kFirstChunkPages << at.chunk) * sizeof(PageSlot)));
      chunk_slot.store(chunk, std::memory_order_release);
    }
    std::construct_at(&chunk[at.offset], new Page(page_size_));
    page_count_.store(id + 1, std::memory_order_release);
    live_pages_.fetch_add(1, std::memory_order_release);
    page_id = static_cast<PageId>(id);
  }
  g_pages_allocated->Add();
  ChargeWrite(page_id);
  return page_id;
}

Result<Page*> SimulatedDisk::ReadPage(PageId page_id) {
  Page* page = Lookup(page_id);
  if (page == nullptr) return NoSuchPage(page_id);
  ChargeRead(page_id);
  return page;
}

Status SimulatedDisk::MarkDirty(PageId page_id) {
  if (Lookup(page_id) == nullptr) return NoSuchPage(page_id);
  ChargeWrite(page_id);
  return Status::OK();
}

Status SimulatedDisk::FreePage(PageId page_id) {
  std::unique_ptr<Page> freed;  // destroyed after the latch is dropped
  {
    util::RankedLockGuard guard(page_table_latch_);
    if (Lookup(page_id) == nullptr) return NoSuchPage(page_id);
    const SlotIndex at = Locate(page_id);
    freed.reset(chunks_[at.chunk]
                    .load(std::memory_order_relaxed)[at.offset]
                    .exchange(nullptr, std::memory_order_acq_rel));
    live_pages_.fetch_sub(1, std::memory_order_release);
  }
  g_pages_freed->Add();
  return Status::OK();
}

void SimulatedDisk::BeginAccessScope() {
  ThreadDiskState& state = StateFor(this);
  PROCSIM_CHECK(!state.in_scope) << "access scopes do not nest";
  state.in_scope = true;
  state.scope_reads.clear();
  state.scope_writes.clear();
}

void SimulatedDisk::EndAccessScope() {
  ThreadDiskState& state = StateFor(this);
  PROCSIM_CHECK(state.in_scope);
  state.in_scope = false;
  state.scope_reads.clear();
  state.scope_writes.clear();
}

bool SimulatedDisk::in_access_scope() const {
  return StateFor(this).in_scope;
}

void SimulatedDisk::PushThreadMeteringDisable() {
  ++StateFor(this).metering_disable_depth;
}

void SimulatedDisk::PopThreadMeteringDisable() {
  ThreadDiskState& state = StateFor(this);
  PROCSIM_CHECK_GT(state.metering_disable_depth, 0);
  --state.metering_disable_depth;
}

void SimulatedDisk::ChargeRead(PageId page_id) {
  if (meter_ == nullptr) return;
  ThreadDiskState& state = StateFor(this);
  if (state.metering_disable_depth > 0) return;
  if (state.in_scope) {
    if (!state.scope_reads.insert(page_id).second) return;  // already charged
  }
  if (cache_.has_value() && cache_->Touch(page_id)) return;  // resident
  g_reads->Add();
  meter_->ChargeDiskRead();
}

void SimulatedDisk::ChargeWrite(PageId page_id) {
  if (meter_ == nullptr) return;
  ThreadDiskState& state = StateFor(this);
  if (state.metering_disable_depth > 0) return;
  if (state.in_scope) {
    if (!state.scope_writes.insert(page_id).second) return;
  }
  // Write-through: always charged; the page becomes (stays) resident.
  if (cache_.has_value()) (void)cache_->Touch(page_id);
  g_writes->Add();
  meter_->ChargeDiskWrite();
}

void SimulatedDisk::EnableBufferCache(std::size_t capacity_pages) {
  cache_.emplace(capacity_pages);
}

}  // namespace procsim::storage
