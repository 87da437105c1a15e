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

/// Compute a Summary (sorts the input it takes, then runs Welford's
/// update over the sorted samples).  The samples sort in the total order
/// of their bits: -0.0 before +0.0, and otherwise as `<` orders them, so
/// any input without -0.0 sorts exactly as std::sort sorts it.  A NaN
/// sample throws std::invalid_argument.  Large inputs sort by an LSD
/// radix sort with one scratch buffer as large as the input.
Summary summarize(std::vector<double> samples);

}  // namespace dmr::util
