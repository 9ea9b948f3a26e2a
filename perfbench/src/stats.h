#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// One reported percentile of a latency sample set.
struct Percentile {
  double quantile = 0;   ///< the quantile actually reported (e.g. 0.99)
  double value = 0;      ///< nearest-rank value at that quantile
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the reported rank
};

/// Nearest-rank percentile at `quantile` of `samples` (sorted in place).
Percentile At(std::vector<double>& samples, double quantile);

/// The highest of `quantile` and lower quantiles that still leaves at least
/// `min_beyond` samples above its rank: a tail percentile is only reported
/// where enough samples lie beyond it to make it repeatable.
Percentile Tail(std::vector<double>& samples, double quantile,
                std::size_t min_beyond = 10);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
