// Percentile helpers shared by the load phases, the replay and the
// self-tests. A tail percentile is only reported when at least
// kMinTailSamples samples lie strictly beyond its rank, so a p99 from a
// 200-sample run is refused instead of quietly reading the maximum.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank q-quantile (0 < q < 1) of `samples`, or nullopt when fewer
/// than kMinTailSamples samples lie beyond the chosen rank. Infinite
/// samples (failed requests) sort last and count as beyond any limit.
inline std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

/// Percentile, or NaN when the sample is too small to support it.
inline double PercentileOrNaN(std::vector<double> samples, double q) {
  return Percentile(std::move(samples), q)
      .value_or(std::numeric_limits<double>::quiet_NaN());
}

/// Plain median (mean of the middle pair for even n); for small samples
/// such as repeated set-ups, where no tail rule applies. 0 when empty.
inline double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
