#include "wl/swf.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <system_error>

namespace dmr::wl {

namespace {

/// SWF records have 18 fields; later ones are tolerated and ignored.
constexpr std::size_t kFields = 18;

/// The C locale's whitespace (space, \t, \n, \v, \f, \r): where lines are
/// trimmed and records split.
constexpr bool is_blank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_blank(text[begin])) ++begin;
  while (end > begin && is_blank(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

/// Splits a record into its first kFields tokens; returns how many it
/// found (kFields when there are more).
std::size_t split_fields(std::string_view body,
                         std::array<std::string_view, kFields>& fields) {
  std::size_t count = 0;
  std::size_t at = 0;
  while (count < kFields) {
    while (at < body.size() && is_blank(body[at])) ++at;
    if (at == body.size()) break;
    const std::size_t begin = at;
    while (at < body.size() && !is_blank(body[at])) ++at;
    fields[count++] = body.substr(begin, at - begin);
  }
  return count;
}

/// SWF field names, for diagnostics (1-based positions).
constexpr const char* kFieldNames[kFields] = {
    "job_number",     "submit",          "wait",
    "run_time",       "used_procs",      "avg_cpu_seconds",
    "used_memory",    "requested_procs", "requested_time",
    "requested_memory", "status",        "user_id",
    "group_id",       "executable",      "queue",
    "partition",      "preceding_job",   "think_time"};

[[noreturn]] void field_error(std::string_view token, int line, int field,
                              const char* problem) {
  throw SwfParseError(line, "field " + std::to_string(field + 1) + " (" +
                                kFieldNames[field] + ") is " + problem +
                                ": \"" + std::string(token) + "\"");
}

double parse_number(std::string_view token, int line, int field) {
  const char* last = token.data() + token.size();
  double value = 0.0;
  const auto [stop, error] = std::from_chars(token.data(), last, value);
  if (error == std::errc::invalid_argument || stop != last) {
    field_error(token, line, field, "not numeric");
  }
  if (error == std::errc::result_out_of_range) {
    // from_chars reports overflow and underflow alike; a negative
    // exponent ("1e-999") is the underflow.
    const bool underflow = token.find("e-") != std::string_view::npos ||
                           token.find("E-") != std::string_view::npos;
    field_error(token, line, field, underflow ? "out of range" : "not finite");
  }
  // from_chars also accepts "inf" and "nan"; no SWF field means either,
  // and a non-finite submit time would reach the engine.
  if (!std::isfinite(value)) field_error(token, line, field, "not finite");
  return value;
}

/// An integer field: exact when the token is a plain integer, else the
/// number rounded half away from zero ("8.0" is 8).  Either way a value
/// outside `Int` is an error, never a wrapped or unspecified integer.
template <typename Int>
Int parse_integer(std::string_view token, int line, int field) {
  const char* last = token.data() + token.size();
  Int value = 0;
  const auto [stop, error] = std::from_chars(token.data(), last, value);
  if (stop == last && error == std::errc()) return value;
  if (stop == last && error == std::errc::result_out_of_range) {
    field_error(token, line, field, "out of range");
  }
  const double rounded = std::round(parse_number(token, line, field));
  // The bounds are -2^31 / -2^63 and 2^31 / 2^63: exact as doubles.
  constexpr double kLow = static_cast<double>(std::numeric_limits<Int>::min());
  if (!(rounded >= kLow && rounded < -kLow)) {
    field_error(token, line, field, "out of range");
  }
  return static_cast<Int>(rounded);
}

/// A header directive's leading integer, trailing prose ignored ("128
/// nodes"); 0 when the value does not start with one.
template <typename Int>
Int directive_number(std::string_view key, std::string_view value, int line) {
  Int number = 0;
  const std::errc error =
      std::from_chars(value.data(), value.data() + value.size(), number).ec;
  if (error == std::errc::result_out_of_range) {
    throw SwfParseError(line, "directive " + std::string(key) +
                                  " is out of range: \"" + std::string(value) +
                                  "\"");
  }
  return error == std::errc() ? number : 0;
}

/// `; Key: Value` (or `;Key: Value`); returns false for free comments.
bool parse_directive(std::string_view comment, std::string_view* key,
                     std::string_view* value) {
  const std::size_t colon = comment.find(':');
  if (colon == std::string_view::npos) return false;
  *key = trim(comment.substr(0, colon));
  *value = trim(comment.substr(colon + 1));
  if (key->empty() || value->empty()) return false;
  // Directive keys are single words (MaxNodes, UnixStartTime, ...).
  return std::none_of(key->begin(), key->end(), is_blank);
}

/// The whole file, or std::runtime_error naming the path and the reason
/// (a directory opens but cannot be read).
std::string read_file(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) throw std::runtime_error("swf: cannot open " + path);
  std::string text;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(static_cast<std::size_t>(size));
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file.get())) > 0) {
    text.append(chunk, got);
  }
  if (std::ferror(file.get()) != 0) {
    const int error = errno;
    throw std::runtime_error("swf: cannot read " + path + ": " +
                             std::generic_category().message(error));
  }
  return text;
}

/// The header lines: the three interpreted directives, then the others
/// in key order.
std::string header_text(const SwfHeader& header) {
  std::string text;
  if (header.unix_start_time != 0) {
    text += "; UnixStartTime: " + std::to_string(header.unix_start_time) + "\n";
  }
  if (header.max_nodes > 0) {
    text += "; MaxNodes: " + std::to_string(header.max_nodes) + "\n";
  }
  if (header.max_procs > 0) {
    text += "; MaxProcs: " + std::to_string(header.max_procs) + "\n";
  }
  for (const auto& [key, value] : header.directives) {
    if (key == "MaxNodes" || key == "MaxProcs" || key == "UnixStartTime") {
      continue;
    }
    text += "; " + key + ": " + value + "\n";
  }
  return text;
}

/// Longest record: 18 fields of at most 24 characters each
/// ("-2.2250738585072014e-308", "-9223372036854775808"), each followed
/// by a separator or the newline.
constexpr std::size_t kRecordBytes = kFields * 25;

/// Writes one record, newline included, at `out` (kRecordBytes long) and
/// returns its end: integers as printf's %lld / %d print them; a number
/// with no fractional part and a magnitude below 1e15 as an integer, any
/// other (inf and nan included) as %.17g, which is what to_chars'
/// general format at precision 17 is.
char* format_record(const TraceJob& job, char* out) {
  char* const last = out + kRecordBytes;
  const auto integer = [&](long long value) {
    out = std::to_chars(out, last, value).ptr;
    *out++ = ' ';
  };
  const auto number = [&](double value) {
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      integer(static_cast<long long>(value));
      return;
    }
    out = std::to_chars(out, last, value, std::chars_format::general, 17).ptr;
    *out++ = ' ';
  };
  integer(job.job_number);
  number(job.submit);
  number(job.wait);
  number(job.run_time);
  integer(job.used_procs);
  number(job.avg_cpu_seconds);
  number(job.used_memory_kb);
  integer(job.requested_procs);
  number(job.requested_time);
  number(job.requested_memory_kb);
  integer(job.status);
  integer(job.user_id);
  integer(job.group_id);
  integer(job.executable);
  integer(job.queue);
  integer(job.partition);
  integer(job.preceding_job);
  number(job.think_time);
  out[-1] = '\n';  // the last separator ends the line
  return out;
}

}  // namespace

int SwfHeader::procs_per_node() const {
  if (max_procs > 0 && max_nodes > 0) return std::max(1, max_procs / max_nodes);
  return 1;
}

int SwfHeader::machine_nodes() const {
  if (max_nodes > 0) return max_nodes;
  if (max_procs > 0) return max_procs;
  return 0;
}

SwfParseError::SwfParseError(int line, const std::string& what)
    : std::runtime_error("swf parse error at line " + std::to_string(line) +
                         ": " + what),
      line_(line) {}

SwfTrace parse_swf_text(std::string_view text) {
  SwfTrace trace;
  // One allocation for the records: at most one per line, and a record
  // line holds at least 18 one-character fields and 17 separators.
  const auto lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  trace.jobs.reserve(std::min(lines, text.size() / (2 * kFields)) + 1);
  std::array<std::string_view, kFields> fields;
  int line_no = 0;
  // Lines as std::getline splits them: a last line needs no newline, and
  // a trailing newline starts no empty line.
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view body = trim(text.substr(begin, end - begin));
    begin = end + 1;
    ++line_no;
    if (body.empty()) continue;
    if (body.front() == ';') {
      ++trace.header.comment_lines;
      std::string_view key;
      std::string_view value;
      if (parse_directive(trim(body.substr(1)), &key, &value)) {
        trace.header.directives[std::string(key)] = value;
        // Directive values may carry trailing prose ("128 nodes"); take
        // the leading number and ignore the rest.
        if (key == "MaxNodes") {
          trace.header.max_nodes = directive_number<int>(key, value, line_no);
        } else if (key == "MaxProcs") {
          trace.header.max_procs = directive_number<int>(key, value, line_no);
        } else if (key == "UnixStartTime") {
          trace.header.unix_start_time =
              directive_number<long long>(key, value, line_no);
        }
      }
      continue;
    }
    const std::size_t found = split_fields(body, fields);
    if (found < kFields) {
      throw SwfParseError(line_no, "expected 18 fields, got " +
                                       std::to_string(found));
    }
    TraceJob& job = trace.jobs.emplace_back();
    job.line = line_no;
    job.job_number = parse_integer<long long>(fields[0], line_no, 0);
    job.submit = parse_number(fields[1], line_no, 1);
    job.wait = parse_number(fields[2], line_no, 2);
    job.run_time = parse_number(fields[3], line_no, 3);
    job.used_procs = parse_integer<int>(fields[4], line_no, 4);
    job.avg_cpu_seconds = parse_number(fields[5], line_no, 5);
    job.used_memory_kb = parse_number(fields[6], line_no, 6);
    job.requested_procs = parse_integer<int>(fields[7], line_no, 7);
    job.requested_time = parse_number(fields[8], line_no, 8);
    job.requested_memory_kb = parse_number(fields[9], line_no, 9);
    job.status = parse_integer<int>(fields[10], line_no, 10);
    job.user_id = parse_integer<int>(fields[11], line_no, 11);
    job.group_id = parse_integer<int>(fields[12], line_no, 12);
    job.executable = parse_integer<int>(fields[13], line_no, 13);
    job.queue = parse_integer<int>(fields[14], line_no, 14);
    job.partition = parse_integer<int>(fields[15], line_no, 15);
    job.preceding_job = parse_integer<long long>(fields[16], line_no, 16);
    job.think_time = parse_number(fields[17], line_no, 17);
  }
  return trace;
}

SwfTrace parse_swf_file(const std::string& path) {
  return parse_swf_text(read_file(path));
}

void write_swf(std::ostream& out, const SwfTrace& trace) {
  out << header_text(trace.header);
  char record[kRecordBytes];
  for (const TraceJob& job : trace.jobs) {
    out.write(record, format_record(job, record) - record);
  }
}

std::string to_swf_text(const SwfTrace& trace) {
  std::string text = header_text(trace.header);
  char record[kRecordBytes];
  for (const TraceJob& job : trace.jobs) {
    text.append(record, format_record(job, record));
  }
  return text;
}

SwfTrace trace_from_feitelson(const std::vector<SyntheticJob>& jobs,
                              int machine_nodes) {
  SwfTrace trace;
  int max_size = std::max(machine_nodes, 1);
  for (const SyntheticJob& job : jobs) max_size = std::max(max_size, job.size);
  trace.header.max_nodes = max_size;
  trace.header.max_procs = max_size;  // 1 processor per node
  trace.header.directives["Note"] = "synthesized from the Feitelson model";
  trace.jobs.reserve(jobs.size());
  for (const SyntheticJob& job : jobs) {
    TraceJob record;
    record.job_number = job.index + 1;
    record.submit = job.arrival;
    record.wait = 0.0;
    record.run_time = job.runtime;
    record.used_procs = job.size;
    record.requested_procs = job.size;
    record.requested_time = job.runtime;
    record.status = kSwfStatusCompleted;
    trace.jobs.push_back(record);
  }
  return trace;
}

std::string ShapeReport::describe() const {
  std::ostringstream out;
  out << "parsed " << parsed << ", kept " << kept << ", dropped " << dropped()
      << " (status " << dropped_status << ", zero-runtime "
      << dropped_zero_runtime << ", no-size " << dropped_no_size << ", cap "
      << dropped_cap << "), clamped " << clamped_oversize;
  return out.str();
}

Workload TraceShaper::shape(const SwfTrace& trace, ShapeReport* report) const {
  ShapeReport local;
  ShapeReport& counts = report != nullptr ? *report : local;
  counts = ShapeReport{};
  counts.parsed = static_cast<int>(trace.jobs.size());

  // Machine size: the header's word, or the widest record when the
  // header is silent.
  const int ppn = trace.header.procs_per_node();
  int machine = trace.header.machine_nodes();
  if (machine <= 0) {
    for (const TraceJob& job : trace.jobs) {
      const int procs = std::max(job.requested_procs, job.used_procs);
      machine = std::max(machine, (procs + ppn - 1) / ppn);
    }
  }
  const double scale =
      target_nodes > 0 && machine > 0
          ? static_cast<double>(target_nodes) / static_cast<double>(machine)
          : 1.0;
  const int resolved_target = target_nodes > 0 ? target_nodes : machine;
  const int ceiling = max_job_nodes > 0 ? max_job_nodes : resolved_target;

  // Records in submission order (archives are usually sorted; tolerate
  // the exceptions).
  std::vector<const TraceJob*> records;
  records.reserve(trace.jobs.size());
  for (const TraceJob& job : trace.jobs) records.push_back(&job);
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceJob* a, const TraceJob* b) {
                     return a->submit < b->submit;
                   });

  struct Survivor {
    const TraceJob* record;
    int nodes;
  };
  std::vector<Survivor> survivors;
  survivors.reserve(records.size());
  for (const TraceJob* record : records) {
    if (record->status != kSwfStatusCompleted &&
        record->status != kSwfStatusUnknown) {
      ++counts.dropped_status;
      continue;
    }
    if (record->run_time <= 0.0) {
      ++counts.dropped_zero_runtime;
      continue;
    }
    const int procs =
        record->requested_procs > 0 ? record->requested_procs
                                    : record->used_procs;
    if (procs <= 0) {
      ++counts.dropped_no_size;
      continue;
    }
    // Rounded up without `procs + ppn - 1`, which overflows when the
    // header's MaxProcs / MaxNodes is near INT_MAX.
    const int source_nodes = procs / ppn + (procs % ppn != 0 ? 1 : 0);
    // Compared as a double: a record far wider than the header's
    // machine rescales past INT_MAX, which a conversion would wrap.
    const double width = std::max(1.0, std::round(source_nodes * scale));
    int nodes = ceiling;
    if (width > ceiling) {
      ++counts.clamped_oversize;
    } else {
      nodes = static_cast<int>(width);
    }
    survivors.push_back(Survivor{record, nodes});
  }

  if (max_jobs > 0 && static_cast<int>(survivors.size()) > max_jobs) {
    counts.dropped_cap = static_cast<int>(survivors.size()) - max_jobs;
    survivors.resize(static_cast<std::size_t>(max_jobs));
  }
  counts.kept = static_cast<int>(survivors.size());

  Workload workload;
  workload.source = "swf";
  workload.target_nodes = resolved_target;
  workload.jobs.reserve(survivors.size());
  const double origin =
      survivors.empty() ? 0.0 : survivors.front().record->submit;
  for (const Survivor& survivor : survivors) {
    WorkloadJob job;
    job.index = static_cast<int>(workload.jobs.size());
    job.arrival = survivor.record->submit - origin;
    job.nodes = survivor.nodes;
    job.runtime = std::max(0.0, survivor.record->run_time);
    job.min_nodes = min_nodes_for(survivor.nodes, malleability);
    job.max_nodes =
        malleability.policy == Malleability::Rigid ||
                malleability.expand_limit <= 0
            ? survivor.nodes
            : std::max(survivor.nodes,
                       std::min(malleability.expand_limit, ceiling));
    job.source_id = survivor.record->job_number;
    workload.jobs.push_back(job);
  }
  return workload;
}

}  // namespace dmr::wl
