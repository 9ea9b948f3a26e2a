#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile At(std::vector<double>& samples, double quantile) {
  Percentile p;
  p.quantile = quantile;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(quantile * n - 1e-9)));
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

Percentile Tail(std::vector<double>& samples, double quantile,
                std::size_t min_beyond) {
  const std::size_t n = samples.size();
  Percentile p = At(samples, quantile);
  if (p.beyond >= min_beyond || n <= min_beyond) return p;
  // Rank n - min_beyond leaves exactly min_beyond samples above it.
  return At(samples,
            static_cast<double>(n - min_beyond) / static_cast<double>(n));
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : At(values, 0.5).value;
}

}  // namespace perfbench
