// Batch statistics used by the metrics collectors.
#pragma once

#include <vector>

namespace dmr::util {

/// Batch summary over a stored sample vector: the samples' mean, their
/// linear-interpolated 95th percentile and their maximum.
struct Summary {
  double mean = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Compute a Summary.  The mean is the in-order sum over the count; p95
/// and max come from selecting the two order statistics p95 interpolates
/// (std::nth_element plus one scan of the part above), so they equal what
/// a sort yields for any input without -0.0.  A NaN sample throws
/// std::invalid_argument; an empty input gives zeros.
Summary summarize(std::vector<double> samples);

}  // namespace dmr::util
