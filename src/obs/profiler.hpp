// obs::Profiler — the simulator's self-count: engine events dispatched,
// plus the process's peak resident set.
//
// As a sink on the lifecycle event stream it counts every dispatched
// engine event (kDispatch).  Where the wall time of a run goes, layer by
// layer, is dmrbench's job (`dmrbench --trace 1`, which times passes and
// placements in its traced child); obs::TraceSink's spans show the same
// phases on a timeline.
//
// The counter is a relaxed atomic, so a profiler read from another
// thread sees a whole count, and the per-event cost stays one
// increment.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/event.hpp"

namespace dmr::obs {

class Profiler final : public Sink {
 public:
  Interest interest() const override;
  void on_event(const Event& event) override;

  /// Engine events dispatched while attached.
  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Peak resident set of this process in KiB (VmHWM from
  /// /proc/self/status; 0 where unavailable).
  static long peak_rss_kb();

 private:
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace dmr::obs
