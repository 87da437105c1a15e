#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace dmr::util {

namespace {

/// Below this many samples std::sort beats the radix passes, whose
/// histograms alone cover kDigits * kBuckets counts.
constexpr std::size_t kRadixCutoff = 1024;
constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t(1) << kDigitBits;
constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;

/// The order-preserving key of a double (Herf, "Radix Tricks", 2001): a
/// positive value gets its sign bit set and a negative one every bit
/// flipped, so the unsigned keys order -inf < ... < -0.0 < +0.0 < ... <
/// +inf, and equal keys are equal bits.
std::uint64_t sort_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t negative = std::uint64_t(0) - (bits >> 63);
  return bits ^ (negative | (std::uint64_t(1) << 63));
}

std::size_t digit(std::uint64_t key, int d) {
  return static_cast<std::size_t>(key >> (d * kDigitBits)) & (kBuckets - 1);
}

void reject_nan() { throw std::invalid_argument("summarize: NaN sample"); }

/// LSD radix sort on sort_key, 11 bits a pass, through one scratch
/// buffer.  A digit every key shares is skipped: it would leave the
/// order as it is.
void radix_sort(std::vector<double>& samples) {
  const std::size_t n = samples.size();
  std::vector<std::size_t> counts(kDigits * kBuckets);
  for (const double x : samples) {
    if (std::isnan(x)) reject_nan();
    const std::uint64_t key = sort_key(x);
    for (int d = 0; d < kDigits; ++d) ++counts[d * kBuckets + digit(key, d)];
  }
  std::vector<double> scratch(n);
  std::vector<double>* from = &samples;
  std::vector<double>* to = &scratch;
  for (int d = 0; d < kDigits; ++d) {
    std::size_t* const next = &counts[d * kBuckets];
    if (next[digit(sort_key((*from)[0]), d)] == n) continue;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      offset += std::exchange(next[b], offset);
    }
    for (const double x : *from) (*to)[next[digit(sort_key(x), d)]++] = x;
    std::swap(from, to);
  }
  // After an odd number of passes the sorted samples are the scratch's.
  if (from != &samples) samples.swap(scratch);
}

void sort_samples(std::vector<double>& samples) {
  if (samples.size() >= kRadixCutoff) {
    radix_sort(samples);
    return;
  }
  if (std::any_of(samples.begin(), samples.end(),
                  [](double x) { return std::isnan(x); })) {
    reject_nan();
  }
  std::sort(samples.begin(), samples.end());
  // `<` leaves -0.0 and +0.0 in one run in no set order; the keys put
  // -0.0 first.
  const auto [lo, hi] = std::equal_range(samples.begin(), samples.end(), 0.0);
  std::partition(lo, hi, [](double x) { return std::signbit(x); });
}

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
  sort_samples(samples);
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
