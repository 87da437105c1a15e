// obs::Profiler — wall-clock self-profiling of the simulator itself.
//
// The archive-scale roadmap item starts with "pull a real log through,
// profile, and rebuild the hot path"; this is the measurement half.
// As a sink on the lifecycle event stream it counts every dispatched
// engine event, and times every schedule call that ran real passes
// (kPassBegin .. kPass) and every federation routing decision, member
// hand-off included (kPlaceBegin .. kPlaced).
//
// report() folds the accumulators plus the process's peak RSS into a
// ProfileReport whose JSON row is what bench/engine_bench and
// bench/sweep append to BENCH_engine.json — the recorded perf
// trajectory every later optimization PR plots its speedup against.
//
// All mutation is relaxed-atomic: sweep attaches one profiler to every
// worker thread's scenario, and per-event cost must stay at one
// increment.  Durations accumulate as integer nanoseconds, so sub-µs
// passes add up instead of truncating to zero.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>

#include "obs/event.hpp"

namespace dmr::obs {

/// One profiling result row (rendered into BENCH_engine.json).
struct ProfileReport {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  double events_per_second = 0.0;
  long long jobs = 0;
  double jobs_per_second = 0.0;
  long long schedule_passes = 0;
  double schedule_seconds = 0.0;
  /// Mean wall time of one real schedule pass (0 when none ran).
  double seconds_per_pass = 0.0;
  long long placements = 0;
  double placement_seconds = 0.0;
  /// Wall time not attributed to schedule/placement: event dispatch,
  /// application-model arithmetic, metrics.
  double engine_seconds = 0.0;
  long peak_rss_kb = 0;

  /// The body of one bench-JSON row ("\"k\":v,...", no braces), so
  /// callers can splice bench-specific fields and provenance around it.
  std::string json_fields() const;
};

class Profiler final : public Sink {
 public:
  // --- the event stream ------------------------------------------------------

  Interest interest() const override;
  void on_event(const Event& event) override;

  // --- accumulation (relaxed atomics; callable cross-thread) ----------------

  void add_events(std::uint64_t count) {
    events_.fetch_add(count, std::memory_order_relaxed);
  }
  void add_schedule(double wall_seconds) {
    schedule_passes_.fetch_add(1, std::memory_order_relaxed);
    add(schedule_ns_, wall_seconds);
  }
  void add_placement(double wall_seconds) {
    placements_.fetch_add(1, std::memory_order_relaxed);
    add(placement_ns_, wall_seconds);
  }

  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Fold the accumulators into a report for a run that took
  /// `wall_seconds` and completed `jobs` jobs.
  ProfileReport report(double wall_seconds, long long jobs) const;

  /// Peak resident set of this process in KiB (VmHWM from
  /// /proc/self/status; 0 where unavailable).
  static long peak_rss_kb();

 private:
  /// Wall seconds are accumulated as integer nanoseconds: atomic
  /// doubles need a CAS loop, integer fetch_add does not.
  static void add(std::atomic<std::uint64_t>& cell, double seconds) {
    if (seconds > 0.0) {
      cell.fetch_add(static_cast<std::uint64_t>(std::llround(seconds * 1.0e9)),
                     std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> schedule_passes_{0};
  std::atomic<std::uint64_t> schedule_ns_{0};
  std::atomic<std::uint64_t> placements_{0};
  std::atomic<std::uint64_t> placement_ns_{0};
};

}  // namespace dmr::obs
