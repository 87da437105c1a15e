#include "svc/metrics_window.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "rms/manager.hpp"

namespace dmr::svc {

// --- WindowedHistogram ------------------------------------------------------

int WindowedHistogram::bucket_count() {
  // One underflow bucket for [0, kLo], then kBucketsPerDecade per decade.
  const double decades = std::log10(kHi / kLo);
  return 1 + static_cast<int>(std::ceil(decades * kBucketsPerDecade));
}

int WindowedHistogram::bucket_of(double value) {
  if (!(value > kLo)) return 0;
  const int bucket =
      1 + static_cast<int>(std::log10(value / kLo) * kBucketsPerDecade);
  return std::min(bucket, bucket_count() - 1);
}

double WindowedHistogram::bucket_upper(int bucket) {
  if (bucket <= 0) return kLo;
  return kLo * std::pow(10.0, double(bucket) / kBucketsPerDecade);
}

WindowedHistogram::WindowedHistogram(int intervals) {
  if (intervals <= 0) {
    throw std::invalid_argument("WindowedHistogram: non-positive intervals");
  }
  intervals_.assign(static_cast<std::size_t>(intervals),
                    std::vector<std::uint32_t>(
                        static_cast<std::size_t>(bucket_count()), 0));
  interval_counts_.assign(static_cast<std::size_t>(intervals), 0);
  interval_sums_.assign(static_cast<std::size_t>(intervals), 0.0);
}

void WindowedHistogram::add(double value) {
  if (value < 0.0) value = 0.0;
  auto& current = intervals_[static_cast<std::size_t>(newest_)];
  ++current[static_cast<std::size_t>(bucket_of(value))];
  ++interval_counts_[static_cast<std::size_t>(newest_)];
  interval_sums_[static_cast<std::size_t>(newest_)] += value;
  ++total_;
  sum_ += value;
}

double WindowedHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile among the windowed counts (1-based ceil).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * double(total_))));
  std::uint64_t seen = 0;
  for (int b = 0; b < bucket_count(); ++b) {
    for (const auto& interval : intervals_) {
      seen += interval[static_cast<std::size_t>(b)];
    }
    if (seen >= rank) return bucket_upper(b);
  }
  return bucket_upper(bucket_count() - 1);
}

void WindowedHistogram::rotate() {
  newest_ = (newest_ + 1) % static_cast<int>(intervals_.size());
  auto& retired = intervals_[static_cast<std::size_t>(newest_)];
  total_ -= interval_counts_[static_cast<std::size_t>(newest_)];
  sum_ -= interval_sums_[static_cast<std::size_t>(newest_)];
  std::fill(retired.begin(), retired.end(), 0);
  interval_counts_[static_cast<std::size_t>(newest_)] = 0;
  interval_sums_[static_cast<std::size_t>(newest_)] = 0.0;
}

void WindowedHistogram::clear() {
  for (auto& interval : intervals_) {
    std::fill(interval.begin(), interval.end(), 0);
  }
  std::fill(interval_counts_.begin(), interval_counts_.end(), 0);
  std::fill(interval_sums_.begin(), interval_sums_.end(), 0.0);
  newest_ = 0;
  total_ = 0;
  sum_ = 0.0;
}

// --- MetricsSample ----------------------------------------------------------

std::string MetricsSample::to_json() const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"svc\":\"sample\",\"t\":" << time << ",\"window\":" << window
      << ",\"completed_total\":" << completed_total
      << ",\"completed_in_window\":" << completed_in_window
      << ",\"reconfigs_in_window\":" << reconfigs_in_window
      << ",\"reconfigs_per_sec\":" << reconfigs_per_second
      << ",\"queue_depth\":" << queue_depth << ",\"ring_depth\":" << ring_depth
      << ",\"utilization\":" << utilization << ",\"wait_mean\":" << wait_mean
      << ",\"wait_p50\":" << wait_p50 << ",\"wait_p95\":" << wait_p95
      << ",\"wait_p99\":" << wait_p99 << ",\"response_p50\":" << response_p50
      << ",\"response_p95\":" << response_p95
      << ",\"response_p99\":" << response_p99
      << ",\"submitted_total\":" << submitted_total
      << ",\"rejected_full_total\":" << rejected_full_total
      << ",\"rejected_full_cum\":" << rejected_full_total
      << ",\"rejected_stale_total\":" << rejected_stale_total;
  for (std::size_t c = 0; c < cause_seconds.size() && c < cause_keys.size();
       ++c) {
    out << ",\"wait_cause_" << cause_keys[c] << "\":" << cause_seconds[c];
  }
  out << "}";
  return out.str();
}

// --- MetricsWindow ----------------------------------------------------------

MetricsWindow::MetricsWindow(double window, double sample_period)
    : window_(window),
      intervals_(std::max(
          1, static_cast<int>(std::llround(window / sample_period)))),
      wait_(intervals_),
      response_(intervals_) {
  if (!(window > 0.0) || !(sample_period > 0.0)) {
    throw std::invalid_argument("MetricsWindow: non-positive window/period");
  }
  if (sample_period > window) {
    throw std::invalid_argument("MetricsWindow: sample period above window");
  }
  reconfigs_.assign(static_cast<std::size_t>(intervals_), 0);
  completions_.assign(static_cast<std::size_t>(intervals_), 0);
}

obs::Interest MetricsWindow::interest() const {
  return obs::kinds(obs::EventKind::kFinished, obs::EventKind::kExpanded,
                    obs::EventKind::kShrinkEnded);
}

void MetricsWindow::on_event(const obs::Event& event) {
  const auto newest = static_cast<std::size_t>(newest_);
  if (event.kind != obs::EventKind::kFinished) {
    ++reconfigs_[newest];
    return;
  }
  const rms::Job& job = event.manager->job(event.job);
  if (job.spec.internal_resizer) return;
  wait_.add(job.wait_time());
  response_.add(job.completion_time());
  ++completions_[newest];
  ++completed_total_;
}

void MetricsWindow::fill(MetricsSample& sample) const {
  sample.window = window_;
  sample.completed_total = completed_total_;
  sample.completed_in_window = static_cast<long long>(
      std::accumulate(completions_.begin(), completions_.end(),
                      std::uint64_t{0}));
  const std::uint64_t reconfigs = std::accumulate(
      reconfigs_.begin(), reconfigs_.end(), std::uint64_t{0});
  sample.reconfigs_in_window = static_cast<long long>(reconfigs);
  sample.reconfigs_per_second = double(reconfigs) / window_;
  sample.wait_mean = wait_.mean();
  sample.wait_p50 = wait_.quantile(0.50);
  sample.wait_p95 = wait_.quantile(0.95);
  sample.wait_p99 = wait_.quantile(0.99);
  sample.response_p50 = response_.quantile(0.50);
  sample.response_p95 = response_.quantile(0.95);
  sample.response_p99 = response_.quantile(0.99);
}

void MetricsWindow::rotate() {
  wait_.rotate();
  response_.rotate();
  newest_ = (newest_ + 1) % intervals_;
  reconfigs_[static_cast<std::size_t>(newest_)] = 0;
  completions_[static_cast<std::size_t>(newest_)] = 0;
}

}  // namespace dmr::svc
