// Standard Workload Format (SWF) v2 trace ingestion.
//
// SWF is the Parallel Workloads Archive's interchange format: a header
// of `; Key: Value` directives followed by one job per line with 18
// whitespace-separated numeric fields (job number, submit, wait, run
// time, used/requested processors, status, ids, ...).  The parser here
// is tolerant — blank lines, free-form comments, unsorted records and
// trailing extra fields are accepted — but malformed job lines fail
// loudly with the offending line number, because a silently skipped
// record would bias every downstream metric.  A number outside its
// field's type (an int processor count of 4294967304, a `1e300` id) or
// an out-of-range MaxNodes / MaxProcs / UnixStartTime directive is such
// a failure too, never a wrapped value.
//
// Raw SWF records describe what one real machine ran; wl::TraceShaper
// turns them into a wl::Workload for the simulator: filter what never
// executed (failed / cancelled / zero-runtime records), rescale
// processors to nodes against a target cluster, clamp oversize
// requests, optionally cap the job count, and annotate
// the rigid records with malleability bounds so Algorithm 1 has room to
// reconfigure them.  Every record the shaper removes or alters is
// counted in a ShapeReport — consumers must surface those counts rather
// than present a truncated trace as complete.
#pragma once

#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "wl/workload.hpp"

namespace dmr::wl {

/// SWF status field values (only the ones the shaper cares about).
constexpr int kSwfStatusFailed = 0;
constexpr int kSwfStatusCompleted = 1;
constexpr int kSwfStatusCancelled = 5;
constexpr int kSwfStatusUnknown = -1;

/// One 18-field SWF job record.  Times are seconds; -1 means "not
/// provided" throughout (the archive's convention).
struct TraceJob {
  long long job_number = -1;       // 1
  double submit = 0.0;             // 2: seconds since UnixStartTime
  double wait = -1.0;              // 3
  double run_time = -1.0;          // 4
  int used_procs = -1;             // 5
  double avg_cpu_seconds = -1.0;   // 6
  double used_memory_kb = -1.0;    // 7
  int requested_procs = -1;        // 8
  double requested_time = -1.0;    // 9
  double requested_memory_kb = -1.0;  // 10
  int status = kSwfStatusUnknown;  // 11
  int user_id = -1;                // 12
  int group_id = -1;               // 13
  int executable = -1;             // 14
  int queue = -1;                  // 15
  int partition = -1;              // 16
  long long preceding_job = -1;    // 17
  double think_time = -1.0;        // 18
  /// Source line in the parsed text (1-based), for diagnostics.
  int line = 0;
};

struct SwfHeader {
  int max_nodes = 0;             // "; MaxNodes: N"
  int max_procs = 0;             // "; MaxProcs: N"
  long long unix_start_time = 0; // "; UnixStartTime: T"
  /// Every `; Key: Value` directive as parsed, including the three above.
  std::map<std::string, std::string> directives;
  /// Comment/directive lines seen (tolerance telemetry for tests).
  int comment_lines = 0;

  /// Processors per node implied by the directives (>= 1; 1 when either
  /// directive is missing).
  int procs_per_node() const;
  /// Machine size in nodes: MaxNodes, or MaxProcs/procs_per_node, or 0.
  int machine_nodes() const;
};

struct SwfTrace {
  SwfHeader header;
  std::vector<TraceJob> jobs;
};

/// Parse failure with the 1-based source line attached (also part of
/// what()).
class SwfParseError : public std::runtime_error {
 public:
  SwfParseError(int line, const std::string& what);
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses the text in place: lines are split as std::getline splits
/// them (CRLF and a last line without a newline included) and records
/// at the C locale's whitespace.
SwfTrace parse_swf_text(std::string_view text);
/// Reads the whole file, then parses it.  Throws std::runtime_error
/// naming the path when the file cannot be opened or read (a directory
/// opens but cannot be read).
SwfTrace parse_swf_file(const std::string& path);

/// Serialize (directives first, then one 18-field line per job).
/// Round-trips through parse_swf_text: fractional times are written with
/// full precision (%.17g), which real archives do not use but the parser
/// accepts.  Both write the same bytes.
void write_swf(std::ostream& out, const SwfTrace& trace);
std::string to_swf_text(const SwfTrace& trace);

/// Express a Feitelson trace as SWF (1 processor per node, completed
/// status).  `machine_nodes` becomes the MaxNodes/MaxProcs directives
/// (0 = the widest generated job); pass the generator's
/// FeitelsonParams::max_size so expand_limit-based malleability bounds
/// survive the trip.  parse(to_swf_text(trace_from_feitelson(jobs, M)))
/// then shaping with the same MalleabilityConfig reproduces
/// from_feitelson(jobs, M, config) — the generator and the ingester
/// share one job model.
SwfTrace trace_from_feitelson(const std::vector<SyntheticJob>& jobs,
                              int machine_nodes = 0);

/// What shaping kept, dropped and altered.  parsed == kept + the four
/// dropped_* counts; clamped records are kept (and counted in kept).
struct ShapeReport {
  int parsed = 0;
  int kept = 0;
  int dropped_status = 0;        // failed / cancelled / partial records
  int dropped_zero_runtime = 0;  // run_time <= 0 (or missing)
  int dropped_no_size = 0;       // neither requested nor used processors
  int dropped_cap = 0;           // past the max_jobs cap
  int clamped_oversize = 0;      // narrowed to the ceiling

  int dropped() const {
    return dropped_status + dropped_zero_runtime + dropped_no_size +
           dropped_cap;
  }
  /// One-line human-readable summary for logs.
  std::string describe() const;
};

/// Shapes a raw SwfTrace into a simulator-ready wl::Workload.  Records
/// whose status is failed, cancelled or partial are dropped (unknown
/// status is kept — most archive records carry -1), as are records with
/// a zero or missing runtime or no size.  Requests wider than the
/// ceiling are clamped to it.  Arrivals shift so the first kept job
/// arrives at t = 0.
struct TraceShaper {
  /// Cluster size (nodes) to rescale the trace onto; 0 = keep the source
  /// machine's size (no rescaling).
  int target_nodes = 0;
  /// Per-job ceiling in nodes (0 = target_nodes).  On federations pass
  /// the largest member so every kept job fits somewhere.
  int max_job_nodes = 0;
  /// Keep at most this many jobs after filtering (0 = all).
  int max_jobs = 0;
  /// Malleability annotation for the (rigid) SWF records.
  MalleabilityConfig malleability;

  Workload shape(const SwfTrace& trace, ShapeReport* report = nullptr) const;
};

}  // namespace dmr::wl
