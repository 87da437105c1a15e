// Batch statistics used by the metrics collectors.
#pragma once

#include <cstddef>
#include <vector>

namespace dmr::util {

/// Batch summary over a stored sample vector, with exact percentiles.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Compute a Summary (copies and sorts the input).
Summary summarize(std::vector<double> samples);

}  // namespace dmr::util
