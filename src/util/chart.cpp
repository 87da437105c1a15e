#include "util/chart.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dmr::util {

namespace {

/// Index of the first point after `time`.
std::size_t first_after(const std::vector<double>& times, double time) {
  return static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), time) - times.begin());
}

/// The value held just before point `index`: 0 before the first point.
double held_value(const std::vector<double>& values, std::size_t index) {
  return index == 0 ? 0.0 : values[index - 1];
}

}  // namespace

void StepSeries::add_point(double time, double value) {
  if (!times_.empty() && time < times_.back()) {
    throw std::invalid_argument("StepSeries: time not monotone");
  }
  if (!times_.empty() && time == times_.back()) {
    values_.back() = value;  // collapse same-instant updates
    return;
  }
  times_.push_back(time);
  values_.push_back(value);
}

double StepSeries::value_at(double time) const {
  return held_value(values_, first_after(times_, time));
}

double StepSeries::average(double t0, double t1) const {
  // One search gives both the value in force at t0 and where the walk
  // starts: the points at or before t0 only set that value.
  std::size_t i = first_after(times_, t0);
  if (!(t1 > t0)) return held_value(values_, i);
  double area = 0.0;
  double prev_t = t0;
  double prev_v = held_value(values_, i);
  for (; i < times_.size(); ++i) {
    const double t = times_[i];
    if (t >= t1) break;
    area += prev_v * (t - prev_t);
    prev_t = t;
    prev_v = values_[i];
  }
  area += prev_v * (t1 - prev_t);
  return area / (t1 - t0);
}

double StepSeries::last_time() const {
  return times_.empty() ? 0.0 : times_.back();
}

double StepSeries::max_value() const {
  double peak = 0.0;
  for (double v : values_) peak = std::max(peak, v);
  return peak;
}

TimeSeriesChart::TimeSeriesChart(double t_end, std::size_t columns,
                                 std::size_t height)
    : t_end_(t_end), columns_(columns), height_(height) {
  if (columns_ < 2 || height_ < 1) {
    throw std::invalid_argument("TimeSeriesChart: degenerate dimensions");
  }
}

void TimeSeriesChart::add_series(std::string label, const StepSeries& series) {
  Entry entry;
  entry.label = std::move(label);
  entry.samples.resize(columns_);
  for (std::size_t c = 0; c < columns_; ++c) {
    const double t0 = t_end_ * static_cast<double>(c) /
                      static_cast<double>(columns_);
    const double t1 = t_end_ * static_cast<double>(c + 1) /
                      static_cast<double>(columns_);
    entry.samples[c] = series.average(t0, t1);
  }
  entry.peak = series.max_value();
  entries_.push_back(std::move(entry));
}

std::string TimeSeriesChart::render() const {
  std::ostringstream out;
  for (const auto& entry : entries_) {
    const double peak = std::max(entry.peak, 1e-9);
    out << entry.label << " (peak " << entry.peak << ")\n";
    for (std::size_t row = height_; row-- > 0;) {
      const double threshold =
          peak * (static_cast<double>(row) + 0.5) /
          static_cast<double>(height_);
      out << "  |";
      for (std::size_t c = 0; c < columns_; ++c) {
        out << (entry.samples[c] >= threshold ? '#' : ' ');
      }
      out << '\n';
    }
    out << "  +";
    for (std::size_t c = 0; c < columns_; ++c) out << '-';
    out << "  t=[0, " << t_end_ << "]\n";
  }
  return out.str();
}

}  // namespace dmr::util
