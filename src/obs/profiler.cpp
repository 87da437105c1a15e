#include "obs/profiler.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/clock.hpp"

namespace dmr::obs {

namespace {

/// Wall-clock stamps of the open *Begin events.  Per thread: one profiler
/// may serve every worker of a sweep, each running one scenario at a time.
thread_local double pass_start = 0.0;
thread_local double place_start = 0.0;

double seconds(const std::atomic<std::uint64_t>& nanoseconds) {
  return static_cast<double>(nanoseconds.load(std::memory_order_relaxed)) /
         1.0e9;
}

}  // namespace

Interest Profiler::interest() const {
  return kinds(EventKind::kDispatch, EventKind::kPassBegin, EventKind::kPass,
               EventKind::kPlaceBegin, EventKind::kPlaced);
}

void Profiler::on_event(const Event& event) {
  switch (event.kind) {
    case EventKind::kDispatch:
      return add_events(1);
    case EventKind::kPassBegin:
      pass_start = util::wall_seconds();
      return;
    case EventKind::kPass:
      return add_schedule(util::wall_seconds() - pass_start);
    case EventKind::kPlaceBegin:
      place_start = util::wall_seconds();
      return;
    case EventKind::kPlaced:
      return add_placement(util::wall_seconds() - place_start);
    default:
      return;
  }
}

long Profiler::peak_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      // "VmHWM:   12345 kB": the first number after the blanks.
      const char* digits = line + 6;
      while (*digits == ' ' || *digits == '\t') ++digits;
      if (std::from_chars(digits, line + std::strlen(line), kb).ec !=
          std::errc()) {
        kb = 0;
      }
      break;
    }
  }
  std::fclose(status);
  return kb;
}

ProfileReport Profiler::report(double wall_seconds, long long jobs) const {
  ProfileReport report;
  report.wall_seconds = wall_seconds;
  report.events = events_.load(std::memory_order_relaxed);
  report.jobs = jobs;
  if (wall_seconds > 0.0) {
    report.events_per_second =
        static_cast<double>(report.events) / wall_seconds;
    report.jobs_per_second = static_cast<double>(jobs) / wall_seconds;
  }
  report.schedule_passes = static_cast<long long>(
      schedule_passes_.load(std::memory_order_relaxed));
  report.schedule_seconds = seconds(schedule_ns_);
  if (report.schedule_passes > 0) {
    report.seconds_per_pass =
        report.schedule_seconds / static_cast<double>(report.schedule_passes);
  }
  report.placements =
      static_cast<long long>(placements_.load(std::memory_order_relaxed));
  report.placement_seconds = seconds(placement_ns_);
  report.engine_seconds = std::max(
      0.0, wall_seconds - report.schedule_seconds - report.placement_seconds);
  report.peak_rss_kb = peak_rss_kb();
  return report;
}

std::string ProfileReport::json_fields() const {
  std::ostringstream out;
  // Nanosecond resolution: a ~100 ns pass must not print as zero.
  out.precision(9);
  out << std::fixed;
  out << "\"wall_seconds\":" << wall_seconds << ",\"events\":" << events
      << ",\"events_per_second\":" << events_per_second
      << ",\"jobs\":" << jobs << ",\"jobs_per_second\":" << jobs_per_second
      << ",\"schedule_passes\":" << schedule_passes
      << ",\"schedule_seconds\":" << schedule_seconds
      << ",\"seconds_per_pass\":" << seconds_per_pass
      << ",\"placements\":" << placements
      << ",\"placement_seconds\":" << placement_seconds
      << ",\"engine_seconds\":" << engine_seconds
      << ",\"peak_rss_kb\":" << peak_rss_kb;
  return out.str();
}

}  // namespace dmr::obs
