// obs::TraceRecorder — structured tracing in Chrome trace-event JSON.
//
// The paper's core artifacts are *timelines*: jobs expanding and
// shrinking across a cluster over simulated time.  The recorder writes
// them as a Perfetto / chrome://tracing loadable file of "X" complete
// spans, thread instants, nestable async spans ("b"/"n"/"e", keyed by
// job id) and counter tracks ("C").  What goes on the timeline is
// decided by obs::TraceSink, the adapter that renders the lifecycle
// event stream into these calls.
//
// Timestamps are simulated seconds converted to trace microseconds, so
// the Perfetto timeline *is* the paper's virtual-time axis.  Every
// record call takes the timestamp explicitly — the recorder has no
// clock of its own, which makes tampering trivial in validator tests.
//
// The recorder appends into a bounded in-memory ring: when the ring
// fills, *new* events are dropped and counted — dropped() and the
// written JSON surface the loss, never silent truncation.  All entry
// points are mutex-guarded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dmr::obs {

/// One recorded trace event (the writer renders it to JSON).
struct TraceEvent {
  double ts_us = 0.0;      ///< simulated time in trace microseconds
  double dur_us = 0.0;     ///< "X" events: span duration (wall or sim)
  double value = 0.0;      ///< "C" events: the counter sample
  std::uint64_t id = 0;    ///< async events: scoping id (the job id)
  std::uint32_t pid = 0;   ///< process track (0 = federation, c+1 = member c)
  std::uint32_t tid = 0;   ///< thread track within the process
  char ph = 'i';           ///< trace-event phase: X i C b n e
  std::string name = {};
  std::string cat = {};    ///< async events: category scoping the id
  std::string args = {};   ///< pre-rendered JSON object body ("\"k\":v,...")
};

class TraceRecorder {
 public:
  /// Ring capacity in events; the ring never grows and never silently
  /// truncates — overflow increments dropped() instead.
  explicit TraceRecorder(std::size_t capacity = std::size_t(1) << 20);

  // --- track naming (metadata; bounded by track count, not ring space) ------

  void set_process_name(std::uint32_t pid, std::string name);
  void set_thread_name(std::uint32_t pid, std::uint32_t tid, std::string name);

  // --- spans and instants on a (pid, tid) track -----------------------------

  /// Complete span at a simulated instant whose duration is measured in
  /// *wall* microseconds (schedule passes and negotiate/apply phases run
  /// in zero simulated time but real wall time).
  void complete(std::uint32_t pid, std::uint32_t tid, double ts_seconds,
                double wall_dur_us, std::string name, std::string args = {});

  /// Thread-scoped instant event.
  void instant(std::uint32_t pid, std::uint32_t tid, double ts_seconds,
               std::string name, std::string args = {});

  // --- nestable async spans, keyed by (pid, cat, id) ------------------------

  void async_begin(std::uint32_t pid, double ts_seconds, std::string cat,
                   std::uint64_t id, std::string name, std::string args = {}) {
    async('b', pid, ts_seconds, std::move(cat), id, std::move(name),
          std::move(args));
  }
  void async_instant(std::uint32_t pid, double ts_seconds, std::string cat,
                     std::uint64_t id, std::string name,
                     std::string args = {}) {
    async('n', pid, ts_seconds, std::move(cat), id, std::move(name),
          std::move(args));
  }
  void async_end(std::uint32_t pid, double ts_seconds, std::string cat,
                 std::uint64_t id, std::string name = {}) {
    async('e', pid, ts_seconds, std::move(cat), id, std::move(name), {});
  }

  // --- counter tracks, keyed by (pid, name) ---------------------------------

  void counter(std::uint32_t pid, double ts_seconds, std::string name,
               double value);

  // --- introspection / output ----------------------------------------------

  std::size_t recorded() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

  /// Render the whole trace as one Chrome trace-event JSON object:
  /// {"displayTimeUnit":"ms","otherData":{"dropped_events":N},
  ///  "traceEvents":[...]}.  Metadata (track names) first, then the ring
  /// in record order.  When events were dropped, a final instant event
  /// flags the loss on the timeline itself.
  void write_json(std::ostream& out) const;
  std::string to_json() const;
  /// write_json to `path`; throws std::runtime_error when unwritable.
  void write_file(const std::string& path) const;

  /// JSON-escape a string for use inside args/name values.
  static std::string escape(const std::string& text);

 private:
  void async(char ph, std::uint32_t pid, double ts_seconds, std::string cat,
             std::uint64_t id, std::string name, std::string args);
  void push(TraceEvent event);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::uint64_t dropped_ = 0;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
      thread_names_;
};

}  // namespace dmr::obs
