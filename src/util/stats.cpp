#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace dmr::util {

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  double sum = 0.0;
  for (const double x : samples) {
    if (std::isnan(x)) throw std::invalid_argument("summarize: NaN sample");
    sum += x;
  }
  const std::size_t n = samples.size();
  s.mean = sum / static_cast<double>(n);
  // The 95th percentile interpolates between the order statistics at
  // `lo` and `lo + 1`.  Selection puts the one at `lo` in place with
  // nothing smaller after it, so the next one and the maximum are the
  // smallest and the largest of the part above.
  const double pos = 0.95 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto at = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), at, samples.end());
  s.max = *at;
  if (lo + 1 == n) {
    s.p95 = *at;
    return s;
  }
  double next = at[1];
  for (auto it = at + 1; it != samples.end(); ++it) {
    next = std::min(next, *it);
    s.max = std::max(s.max, *it);
  }
  const double frac = pos - static_cast<double>(lo);
  s.p95 = *at * (1.0 - frac) + next * frac;
  return s;
}

}  // namespace dmr::util
