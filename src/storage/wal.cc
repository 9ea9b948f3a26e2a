#include "storage/wal.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace procsim::storage {
namespace {

obs::Counter* const g_appended =
    obs::GlobalMetrics().RegisterCounter("wal.records.appended");
obs::Counter* const g_forces =
    obs::GlobalMetrics().RegisterCounter("wal.log.forces");
obs::Counter* const g_truncations =
    obs::GlobalMetrics().RegisterCounter("wal.log.truncations");

}  // namespace

using Guard = util::RankedLockGuard;

const char* WalRecordKindName(WalRecord::Kind kind) {
  switch (kind) {
    case WalRecord::Kind::kBegin:
      return "begin";
    case WalRecord::Kind::kMutation:
      return "mutation";
    case WalRecord::Kind::kCommit:
      return "commit";
    case WalRecord::Kind::kAbort:
      return "abort";
    case WalRecord::Kind::kInvalidate:
      return "invalidate";
    case WalRecord::Kind::kValidate:
      return "validate";
    case WalRecord::Kind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

WriteAheadLog::WriteAheadLog(CostMeter* meter, double force_cost_ms)
    : force_cost_ms_(force_cost_ms), meter_(meter) {}

uint64_t WriteAheadLog::Append(WalRecord record) {
  Guard guard(latch_);
  record.lsn = next_lsn_++;
  records_.push_back(std::move(record));
  g_appended->Add();
  return records_.back().lsn;
}

uint64_t WriteAheadLog::AppendBegin(uint64_t txn) {
  return Append(WalRecord{0, WalRecord::Kind::kBegin, txn, 0, 0, {}});
}

uint64_t WriteAheadLog::AppendMutation(uint64_t txn, uint64_t op_kind,
                                       uint64_t op_value) {
  return Append(
      WalRecord{0, WalRecord::Kind::kMutation, txn, op_kind, op_value, {}});
}

uint64_t WriteAheadLog::AppendCommit(uint64_t txn) {
  return Append(WalRecord{0, WalRecord::Kind::kCommit, txn, 0, 0, {}});
}

uint64_t WriteAheadLog::AppendAbort(uint64_t txn) {
  return Append(WalRecord{0, WalRecord::Kind::kAbort, txn, 0, 0, {}});
}

uint64_t WriteAheadLog::AppendInvalidate(uint64_t txn, uint64_t procedure) {
  return Append(
      WalRecord{0, WalRecord::Kind::kInvalidate, txn, procedure, 0, {}});
}

uint64_t WriteAheadLog::AppendValidate(uint64_t txn, uint64_t procedure) {
  return Append(
      WalRecord{0, WalRecord::Kind::kValidate, txn, procedure, 0, {}});
}

uint64_t WriteAheadLog::AppendCheckpoint(std::vector<bool> bitmap) {
  return Append(
      WalRecord{0, WalRecord::Kind::kCheckpoint, 0, 0, 0, std::move(bitmap)});
}

void WriteAheadLog::Force() {
  {
    Guard guard(latch_);
    g_forces->Add();
  }
  // The meter has its own internal synchronization; charging outside the
  // latch keeps the WAL critical section minimal.
  if (meter_ != nullptr && force_cost_ms_ > 0) {
    meter_->ChargeFixed(force_cost_ms_);
  }
}

Status WriteAheadLog::ResetFrom(std::vector<WalRecord> records) {
  uint64_t previous = 0;
  for (const WalRecord& record : records) {
    if (record.lsn <= previous) {
      return Status::InvalidArgument(
          "ResetFrom records must have strictly increasing LSNs");
    }
    previous = record.lsn;
  }
  Guard guard(latch_);
  records_ = std::move(records);
  next_lsn_ = previous + 1;
  truncated_through_ = 0;
  return Status::OK();
}

std::vector<WalRecord> WriteAheadLog::Snapshot() const {
  Guard guard(latch_);
  return records_;
}

void WriteAheadLog::TruncateThrough(uint64_t lsn) {
  Guard guard(latch_);
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const WalRecord& record) {
                                  return record.lsn <= lsn;
                                }),
                 records_.end());
  truncated_through_ = std::max(truncated_through_, lsn);
  g_truncations->Add();
}

std::size_t WriteAheadLog::size() const {
  Guard guard(latch_);
  return records_.size();
}

uint64_t WriteAheadLog::next_lsn() const {
  Guard guard(latch_);
  return next_lsn_;
}

uint64_t WriteAheadLog::truncated_through() const {
  Guard guard(latch_);
  return truncated_through_;
}

Status WriteAheadLog::CheckConsistency() const {
  Guard guard(latch_);
  uint64_t previous = truncated_through_;
  std::set<uint64_t> terminated;
  for (const WalRecord& record : records_) {
    if (record.lsn <= previous) {
      return Status::Internal("WAL LSN " + std::to_string(record.lsn) +
                              " does not increase past " +
                              std::to_string(previous));
    }
    if (record.lsn >= next_lsn_) {
      return Status::Internal("WAL LSN " + std::to_string(record.lsn) +
                              " is at or beyond next_lsn " +
                              std::to_string(next_lsn_));
    }
    if (record.kind == WalRecord::Kind::kCommit ||
        record.kind == WalRecord::Kind::kAbort) {
      if (record.txn == 0) {
        return Status::Internal("WAL " +
                                std::string(WalRecordKindName(record.kind)) +
                                " record at LSN " + std::to_string(record.lsn) +
                                " has no transaction id");
      }
      if (!terminated.insert(record.txn).second) {
        return Status::Internal("transaction " + std::to_string(record.txn) +
                                " terminated twice (LSN " +
                                std::to_string(record.lsn) + ")");
      }
    }
    if (record.kind == WalRecord::Kind::kCheckpoint && record.bitmap.empty()) {
      return Status::Internal("checkpoint record at LSN " +
                              std::to_string(record.lsn) +
                              " carries no validity bitmap");
    }
    previous = record.lsn;
  }
  return Status::OK();
}

}  // namespace procsim::storage
