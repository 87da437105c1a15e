// Strict validation of a recorded Chrome trace-event JSON file.
//
// The recorder's output is only trustworthy if something independent
// re-reads it, so this is a real parser (a compact recursive-descent
// JSON reader, not a regex scan) plus the structural rules a loadable
// timeline must satisfy:
//
//  - well-formed JSON with a "traceEvents" array of objects;
//  - every event carries ph/ts/pid/tid (name too, except the "E"/"e"
//    end events, whose matching begin named the span);
//  - per (pid, tid) track: "B"/"E" balance as a stack and timestamps
//    never go backwards;
//  - per (pid, cat, id) async scope: "b"/"e" balance and timestamps
//    never go backwards;
//  - per (pid, name) counter track: timestamps never go backwards;
//  - the dropped-events counter is read back from otherData.  A trace
//    that dropped events may be unbalanced (the tail fell off the
//    ring); that demotes balance violations to warnings — loss is
//    reported, never silently accepted as a complete timeline.
//
// Used by tests/test_obs.cpp and tests/test_observers.cpp, the
// trace_smoke ctest (through the bench/trace_validate binary) and the
// examples that write a trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dmr::obs {

struct TraceValidation {
  bool ok = false;
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  std::size_t events = 0;        ///< non-metadata events
  std::size_t spans = 0;         ///< completed B/E pairs + X events
  std::size_t async_spans = 0;   ///< completed b/e pairs
  std::size_t instants = 0;      ///< i + n events
  std::size_t counter_events = 0;
  int tracks = 0;                ///< distinct (pid, tid) span tracks
  int counter_tracks = 0;        ///< distinct (pid, name) counter tracks
  std::uint64_t dropped = 0;     ///< otherData.dropped_events

  std::string describe() const;
};

/// Validate a trace JSON document in memory.
TraceValidation validate_trace(const std::string& json);

/// Read and validate `path`; an unreadable file is a validation error,
/// not an exception.
TraceValidation validate_trace_file(const std::string& path);

}  // namespace dmr::obs
