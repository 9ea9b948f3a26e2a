#include "storage/disk.h"

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

ThreadDiskState& StateFor(const SimulatedDisk* disk) {
  for (ThreadDiskState& state : t_disk_states) {
    if (state.disk == disk) return state;
  }
  t_disk_states.push_back(ThreadDiskState{});
  t_disk_states.back().disk = disk;
  return t_disk_states.back();
}

void DropStateFor(const SimulatedDisk* disk) {
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
}

std::size_t SimulatedDisk::page_count() const {
  util::RankedLockGuard guard(page_table_latch_);
  return pages_.size();
}

std::size_t SimulatedDisk::live_page_count() const {
  util::RankedLockGuard guard(page_table_latch_);
  return live_pages_;
}

std::size_t SimulatedDisk::resident_bytes() const {
  util::RankedLockGuard guard(page_table_latch_);
  std::size_t bytes = 0;
  for (const std::unique_ptr<Page>& page : pages_) {
    if (page != nullptr) bytes += page->resident_bytes();
  }
  return bytes;
}

bool SimulatedDisk::IsLive(PageId page_id) const {
  util::RankedLockGuard guard(page_table_latch_);
  return page_id < pages_.size() && pages_[page_id] != nullptr;
}

bool SimulatedDisk::metering_enabled() const {
  if (!metering_enabled_) return false;
  const ThreadDiskState& state = StateFor(this);
  return state.metering_disable_depth == 0;
}

PageId SimulatedDisk::AllocatePage() {
  PageId page_id;
  {
    util::RankedLockGuard guard(page_table_latch_);
    pages_.push_back(std::make_unique<Page>(page_size_));
    page_id = static_cast<PageId>(pages_.size() - 1);
    ++live_pages_;
  }
  g_pages_allocated->Add();
  ChargeWrite(page_id);
  return page_id;
}

Result<Page*> SimulatedDisk::ReadPage(PageId page_id) {
  Page* page = nullptr;
  {
    util::RankedLockGuard guard(page_table_latch_);
    if (page_id < pages_.size()) page = pages_[page_id].get();
  }
  if (page == nullptr) return NoSuchPage(page_id);
  ChargeRead(page_id);
  return page;
}

Status SimulatedDisk::MarkDirty(PageId page_id) {
  if (!IsLive(page_id)) return NoSuchPage(page_id);
  ChargeWrite(page_id);
  return Status::OK();
}

Status SimulatedDisk::FreePage(PageId page_id) {
  std::unique_ptr<Page> freed;  // destroyed after the latch is dropped
  {
    util::RankedLockGuard guard(page_table_latch_);
    if (page_id >= pages_.size() || pages_[page_id] == nullptr) {
      return NoSuchPage(page_id);
    }
    freed = std::move(pages_[page_id]);
    --live_pages_;
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
  if (meter_ == nullptr || !metering_enabled()) return;
  ThreadDiskState& state = StateFor(this);
  if (state.in_scope) {
    if (!state.scope_reads.insert(page_id).second) return;  // already charged
  }
  if (cache_.has_value() && cache_->Touch(page_id)) return;  // resident
  g_reads->Add();
  meter_->ChargeDiskRead();
}

void SimulatedDisk::ChargeWrite(PageId page_id) {
  if (meter_ == nullptr || !metering_enabled()) return;
  ThreadDiskState& state = StateFor(this);
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

void SimulatedDisk::DisableBufferCache() { cache_.reset(); }

}  // namespace procsim::storage
