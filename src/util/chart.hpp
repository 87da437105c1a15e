// ASCII chart rendering for the timeline figures (Figs. 4-6, 12).
//
// The paper's evolution plots show allocated nodes, running jobs and
// completed jobs over time; TimeSeriesChart renders the same series as a
// downsampled terminal plot so a bench binary can "draw" the figure.
#pragma once

#include <string>
#include <vector>

namespace dmr::util {

/// A step-function time series: value changes at given times and holds.
class StepSeries {
 public:
  void add_point(double time, double value);

  /// Value at time t (last change at or before t; 0 before first point).
  double value_at(double time) const;

  /// Time-weighted average of the series over [t0, t1]; costs a binary
  /// search plus the points inside the window.
  double average(double t0, double t1) const;

  double last_time() const;
  double max_value() const;
  bool empty() const { return times_.empty(); }
  std::size_t size() const { return times_.size(); }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Renders one or more step series sampled onto a fixed-width row of
/// columns; each series becomes one row block of the chart.
class TimeSeriesChart {
 public:
  TimeSeriesChart(double t_end, std::size_t columns, std::size_t height);

  void add_series(std::string label, const StepSeries& series);

  std::string render() const;

 private:
  struct Entry {
    std::string label;
    std::vector<double> samples;
    double peak;
  };
  double t_end_;
  std::size_t columns_;
  std::size_t height_;
  std::vector<Entry> entries_;
};

}  // namespace dmr::util
