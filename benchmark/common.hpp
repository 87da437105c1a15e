// Shared vocabulary of the dmrbench parent and child processes: the
// workload names, the monotonic clock, and the order statistics every
// reported median and quartile goes through.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dmrbench {

enum class Workload { kArchive, kFig10, kFederation, kService };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kArchive, Workload::kFig10, Workload::kFederation,
    Workload::kService};

const char* workload_name(Workload workload);
/// False when `name` is not a workload name.
bool workload_from_name(const std::string& name, Workload& out);
/// The seed a workload uses when --seed is not given.
std::uint64_t default_seed(Workload workload);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(rank);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - static_cast<double>(low));
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// First and third quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so printed spreads match what a
/// reader recomputes from the per-run numbers.  A single value is its
/// own quartiles.
inline std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double only = values.empty() ? 0.0 : values.front();
    return {only, only};
  }
  std::sort(values.begin(), values.end());
  const auto count = static_cast<long long>(values.size());
  const auto cut = [&](long long i) {
    long long j = i * (count + 1) / 4;
    j = std::clamp(j, 1LL, count - 1);
    const long long delta = i * (count + 1) - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

}  // namespace dmrbench
