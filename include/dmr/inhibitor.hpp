// The "checking inhibitor" of Section V-A.
//
// Iterative applications with short steps would otherwise negotiate with
// the RMS every iteration; the inhibitor ignores DMR API calls that occur
// within `period` of the last answered one.  The paper tunes this knob
// through NANOX_SCHED_PERIOD; here the period is a constructor argument
// (ReconfigEngine/ReconfigPoint take it, the driver reads it from each
// application model's sched_period).
#pragma once

#include <limits>

namespace dmr {

class Inhibitor {
 public:
  /// period <= 0 disables inhibition (every check goes through).
  explicit Inhibitor(double period = 0.0) : period_(period) {}

  /// Whether a check at `now` would be allowed, without arming anything:
  /// callers test upcoming checks with it.
  bool would_allow(double now) const {
    return period_ <= 0.0 || !(armed_ && now - last_ < period_);
  }

  /// When the window the last granted check armed closes: last + period
  /// while armed, -infinity while every check goes through.  The sum is
  /// rounded (to +infinity when it overflows) and would_allow rounds
  /// now - last, so the first time would_allow lets through can lie a
  /// rounding either side of it: callers aim their would_allow tests with
  /// it, they do not replace them.
  double reopens_at() const {
    return armed_ ? last_ + period_
                  : -std::numeric_limits<double>::infinity();
  }

  /// Returns true when a check at `now` is allowed; a granted check arms
  /// the inhibition window.
  bool allow(double now) {
    if (!would_allow(now)) return false;
    if (period_ > 0.0) {
      armed_ = true;
      last_ = now;
    }
    return true;
  }

 private:
  double period_;
  double last_ = 0.0;
  bool armed_ = false;
};

}  // namespace dmr
