#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <iostream>
#include <string>

#include "util/cost_meter.h"
#include "util/status.h"

namespace perfbench {

/// An exact reading of a CostMeter: the simulated cost the paper charges.
struct MeterReading {
  double total_ms = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t screens = 0;
  uint64_t delta_ops = 0;

  static MeterReading Of(const procsim::CostMeter& meter) {
    return {meter.total_ms(), meter.disk_reads(), meter.disk_writes(),
            meter.screens(), meter.delta_ops()};
  }
  MeterReading operator-(const MeterReading& o) const {
    return {total_ms - o.total_ms, reads - o.reads, writes - o.writes,
            screens - o.screens, delta_ops - o.delta_ops};
  }
  bool operator==(const MeterReading& o) const {
    return total_ms == o.total_ms && reads == o.reads && writes == o.writes &&
           screens == o.screens && delta_ops == o.delta_ops;
  }
};

/// The run's correctness checks.  Every check counts as attempted; a failed
/// one is reported on stderr and fails the run.  None is ever skipped.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "check failed: " << what << "\n";
    }
  }
  void ExpectOk(const procsim::Status& status, const std::string& what) {
    Expect(status.ok(), what + (status.ok() ? "" : ": " + status.ToString()));
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
