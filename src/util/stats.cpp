#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dmr::util {

namespace {

/// Linear-interpolated percentile of a *sorted* sample vector, q in [0,1].
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  // Welford's update over the sorted samples.
  double m2 = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double x = samples[i];
    s.sum += x;
    const double delta = x - s.mean;
    s.mean += delta / static_cast<double>(i + 1);
    m2 += delta * (x - s.mean);
  }
  if (samples.size() > 1) {
    s.stddev = std::sqrt(m2 / static_cast<double>(samples.size() - 1));
  }
  s.min = samples.front();
  s.max = samples.back();
  s.p25 = percentile_sorted(samples, 0.25);
  s.median = percentile_sorted(samples, 0.50);
  s.p75 = percentile_sorted(samples, 0.75);
  s.p95 = percentile_sorted(samples, 0.95);
  return s;
}

}  // namespace dmr::util
