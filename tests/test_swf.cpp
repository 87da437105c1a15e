// SWF trace-ingestion tests: golden-file decoding of the bundled
// fixture, parser tolerance and diagnostics, the in-place reader and
// writer against the stream-based ones they replaced (kept below as the
// oracle), shaper filtering/rescaling semantics, the Feitelson -> SWF ->
// parse -> shape round-trip property (generator and ingester share one
// job model), and driver parity (replaying through a single-member
// federation == feeding the same JobPlans directly).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;
using namespace dmr::wl;

std::string fixture_path() {
  return std::string(DMR_TEST_DATA_DIR) + "/mini.swf";
}

SwfTrace fixture() { return parse_swf_file(fixture_path()); }

// ---------------------------------------------------------------------------
// Golden-file parsing
// ---------------------------------------------------------------------------

TEST(SwfGolden, HeaderDirectives) {
  const SwfTrace trace = fixture();
  EXPECT_EQ(trace.header.max_nodes, 20);
  EXPECT_EQ(trace.header.max_procs, 40);
  EXPECT_EQ(trace.header.unix_start_time, 838012800);
  EXPECT_EQ(trace.header.procs_per_node(), 2);
  EXPECT_EQ(trace.header.machine_nodes(), 20);
  ASSERT_TRUE(trace.header.directives.count("Version"));
  EXPECT_EQ(trace.header.directives.at("Version"), "2.2");
  EXPECT_EQ(trace.header.directives.at("Computer"), "Imaginary SP2");
  EXPECT_EQ(trace.header.directives.at("TimeZoneString"), "Europe/Madrid");
  // Uninterpreted directives are still retained verbatim.
  EXPECT_EQ(trace.header.directives.at("MaxJobs"), "24");
}

TEST(SwfGolden, FirstRecordFieldByField) {
  const SwfTrace trace = fixture();
  ASSERT_EQ(trace.jobs.size(), 24u);
  const TraceJob& job = trace.jobs.front();
  EXPECT_EQ(job.job_number, 1);
  EXPECT_DOUBLE_EQ(job.submit, 0.0);
  EXPECT_DOUBLE_EQ(job.wait, 12.0);
  EXPECT_DOUBLE_EQ(job.run_time, 120.0);
  EXPECT_EQ(job.used_procs, 8);
  EXPECT_DOUBLE_EQ(job.avg_cpu_seconds, 110.5);
  EXPECT_DOUBLE_EQ(job.used_memory_kb, 2048.0);
  EXPECT_EQ(job.requested_procs, 8);
  EXPECT_DOUBLE_EQ(job.requested_time, 300.0);
  EXPECT_DOUBLE_EQ(job.requested_memory_kb, 4096.0);
  EXPECT_EQ(job.status, kSwfStatusCompleted);
  EXPECT_EQ(job.user_id, 101);
  EXPECT_EQ(job.group_id, 5);
  EXPECT_EQ(job.executable, 3);
  EXPECT_EQ(job.queue, 1);
  EXPECT_EQ(job.partition, 1);
  EXPECT_EQ(job.preceding_job, -1);
  EXPECT_DOUBLE_EQ(job.think_time, 0.0);
  EXPECT_EQ(job.line, 14);  // after the 12-line header and a blank line
}

TEST(SwfGolden, RecordOrderAndSpecialRows) {
  const SwfTrace trace = fixture();
  ASSERT_EQ(trace.jobs.size(), 24u);
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_EQ(trace.jobs[i].job_number, static_cast<long long>(i + 1));
  }
  // The parser preserves file order, including the out-of-order submit
  // (job 13 at t=580 appears after job 12 at t=600).
  EXPECT_DOUBLE_EQ(trace.jobs[11].submit, 600.0);
  EXPECT_DOUBLE_EQ(trace.jobs[12].submit, 580.0);
  EXPECT_EQ(trace.jobs[2].status, kSwfStatusFailed);
  EXPECT_EQ(trace.jobs[6].status, kSwfStatusCancelled);
  EXPECT_DOUBLE_EQ(trace.jobs[3].run_time, 0.0);
  EXPECT_EQ(trace.jobs[5].requested_procs, -1);  // falls back to used_procs
}

TEST(SwfGolden, CommentAndBlankLineTolerance) {
  const SwfTrace trace = fixture();
  // 12 header lines + 2 mid-file commentary lines.
  EXPECT_EQ(trace.header.comment_lines, 14);
}

// ---------------------------------------------------------------------------
// Parser tolerance and diagnostics
// ---------------------------------------------------------------------------

TEST(SwfParse, TooFewFieldsReportsLineNumber) {
  const std::string text =
      "; MaxNodes: 4\n"
      "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n"
      "2 5 0 10\n";
  try {
    parse_swf_text(text);
    FAIL() << "expected SwfParseError";
  } catch (const SwfParseError& error) {
    EXPECT_EQ(error.line(), 3);
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("18 fields"), std::string::npos);
  }
}

TEST(SwfParse, NonNumericFieldReportsLineAndField) {
  const std::string text =
      "\n"
      "; a comment\n"
      "1 0 0 10 2 -1 -1 two 60 -1 1 1 1 1 1 1 -1 0\n";
  try {
    parse_swf_text(text);
    FAIL() << "expected SwfParseError";
  } catch (const SwfParseError& error) {
    EXPECT_EQ(error.line(), 3);
    EXPECT_NE(std::string(error.what()).find("requested_procs"),
              std::string::npos);
  }
}

// strtod accepts "inf" and "nan"; the parser must not, or a non-finite
// submit time reaches the engine (which used to hang on +inf).
TEST(SwfParse, NonFiniteFieldReportsLineAndField) {
  const std::string good = "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n";
  const struct {
    const char* record;
    const char* field;
  } cases[] = {
      {"2 inf 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", "submit"},
      {"2 5 0 nan 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", "run_time"},
      {"2 5 0 10 2 -1 -1 2 -INF -1 1 1 1 1 1 1 -1 0\n", "requested_time"},
      {"2 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 1e999\n", "think_time"},
  };
  for (const auto& c : cases) {
    try {
      parse_swf_text(good + c.record);
      ADD_FAILURE() << "expected SwfParseError for " << c.record;
    } catch (const SwfParseError& error) {
      EXPECT_EQ(error.line(), 2) << c.record;
      EXPECT_NE(std::string(error.what()).find(c.field), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("not finite"),
                std::string::npos)
          << error.what();
    }
  }
}

// Integers outside their field's type used to wrap (4294967304 procs
// became 8) or go through llround's unspecified result (1e300 became 0
// and the record was dropped as sizeless); header directives went
// through atoi.  Each is now an error naming the line and field.
TEST(SwfParse, RejectsOutOfRangeIntegers) {
  const std::string good = "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n";
  const struct {
    const char* text;
    int line;
    const char* name;
    const char* problem;
  } cases[] = {
      {"2 5 0 10 4294967304 -1 -1 4294967304 60 -1 1 1 1 1 1 1 -1 0\n", 2,
       "used_procs", "out of range"},
      {"2 5 0 10 2 -1 -1 1e300 60 -1 1 1 1 1 1 1 -1 0\n", 2, "requested_procs",
       "out of range"},
      {"2 5 0 10 2 -1 -1 2 60 -1 -2147483649 1 1 1 1 1 -1 0\n", 2, "status",
       "out of range"},
      {"2 5 0 10 2 -1 -1 2 60 -1 1 2147483647.5 1 1 1 1 -1 0\n", 2, "user_id",
       "out of range"},
      {"9223372036854775808 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", 2,
       "job_number", "out of range"},
      {"2 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -9.3e18 0\n", 2, "preceding_job",
       "out of range"},
      // Underflow is out of range, not "not finite".
      {"2 5 1e-999 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", 2, "wait",
       "out of range"},
      {"2 5 0 10 2 -1 -1 1e-999 60 -1 1 1 1 1 1 1 -1 0\n", 2, "requested_procs",
       "out of range"},
      {"; MaxNodes: 4294967296\n", 1, "MaxNodes", "out of range"},
      {"; MaxProcs: -2147483649 procs\n", 1, "MaxProcs", "out of range"},
      {"; UnixStartTime: 99999999999999999999\n", 1, "UnixStartTime",
       "out of range"},
  };
  for (const auto& c : cases) {
    const std::string text =
        c.line == 1 ? std::string(c.text) + good : good + c.text;
    try {
      parse_swf_text(text);
      ADD_FAILURE() << "expected SwfParseError for " << c.text;
    } catch (const SwfParseError& error) {
      const std::string what = error.what();
      EXPECT_EQ(error.line(), c.line) << what;
      EXPECT_NE(what.find(c.name), std::string::npos) << what;
      EXPECT_NE(what.find(c.problem), std::string::npos) << what;
    }
  }
  // The edges of each type, decimal integers and trailing directive
  // prose are still read.
  const SwfTrace trace = parse_swf_text(
      "; MaxNodes: 2147483647 nodes\n"
      "; UnixStartTime: -9223372036854775808\n"
      "9223372036854775807 0 0 10 2.0 -1 -1 2 60 -1 1 -2147483648 1 1 1 1 "
      "-1 0\n");
  EXPECT_EQ(trace.header.max_nodes, 2147483647);
  EXPECT_EQ(trace.header.unix_start_time,
            std::numeric_limits<long long>::min());
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].job_number, std::numeric_limits<long long>::max());
  EXPECT_EQ(trace.jobs[0].used_procs, 2);
  EXPECT_EQ(trace.jobs[0].user_id, std::numeric_limits<int>::min());
}

TEST(SwfParse, ExtraTrailingFieldsTolerated) {
  const SwfTrace trace = parse_swf_text(
      "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0 99 98\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].used_procs, 2);
}

TEST(SwfParse, MissingFileThrows) {
  EXPECT_THROW(parse_swf_file("/nonexistent/trace.swf"), std::runtime_error);
}

// A directory opens but every read fails (EISDIR); taking that for the
// end of the input parsed it as an empty trace.
TEST(SwfParse, UnreadablePathThrows) {
  const std::string path = DMR_TEST_DATA_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(path));
  try {
    parse_swf_file(path);
    FAIL() << "expected std::runtime_error";
  } catch (const SwfParseError& error) {
    FAIL() << "not a parse error: " << error.what();
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cannot read " + path), std::string::npos) << what;
    EXPECT_NE(what.find(std::generic_category().message(EISDIR)),
              std::string::npos)
        << what;
  }
}

// ---------------------------------------------------------------------------
// Differential tests: the in-place reader and writer against the
// stream-based ones they replaced, kept here as the oracle.  The bytes
// `make_swf --jobs 100000 --nodes 1024 --seed 1` wrote through the
// stream-based writer (10 024 114 of them) are pinned by archive_smoke:
//   sha256 5e3e7a791c0db3fbd059409f65022ff797890a7a16553a8f9b829515d6f0f9b2
// ---------------------------------------------------------------------------

namespace stream_oracle {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (in >> field) fields.push_back(std::move(field));
  return fields;
}

constexpr const char* kFieldNames[18] = {
    "job_number",     "submit",          "wait",
    "run_time",       "used_procs",      "avg_cpu_seconds",
    "used_memory",    "requested_procs", "requested_time",
    "requested_memory", "status",        "user_id",
    "group_id",       "executable",      "queue",
    "partition",      "preceding_job",   "think_time"};

[[noreturn]] void field_error(const std::string& token, int line, int field,
                              const char* problem) {
  throw SwfParseError(line, "field " + std::to_string(field + 1) + " (" +
                                kFieldNames[field] + ") is " + problem +
                                ": \"" + token + "\"");
}

double parse_number(const std::string& token, int line, int field) {
  const char* last = token.data() + token.size();
  double value = 0.0;
  const auto [stop, error] = std::from_chars(token.data(), last, value);
  if (error == std::errc::invalid_argument || stop != last) {
    field_error(token, line, field, "not numeric");
  }
  if (error == std::errc::result_out_of_range) {
    const bool underflow = token.find("e-") != std::string::npos ||
                           token.find("E-") != std::string::npos;
    field_error(token, line, field, underflow ? "out of range" : "not finite");
  }
  if (!std::isfinite(value)) field_error(token, line, field, "not finite");
  return value;
}

template <typename Int>
Int parse_integer(const std::string& token, int line, int field) {
  const char* last = token.data() + token.size();
  Int value = 0;
  const auto [stop, error] = std::from_chars(token.data(), last, value);
  if (stop == last && error == std::errc()) return value;
  if (stop == last && error == std::errc::result_out_of_range) {
    field_error(token, line, field, "out of range");
  }
  const double rounded = std::round(parse_number(token, line, field));
  constexpr double kLow = static_cast<double>(std::numeric_limits<Int>::min());
  if (!(rounded >= kLow && rounded < -kLow)) {
    field_error(token, line, field, "out of range");
  }
  return static_cast<Int>(rounded);
}

template <typename Int>
Int directive_number(const std::string& key, const std::string& value,
                     int line) {
  Int number = 0;
  const std::errc error =
      std::from_chars(value.data(), value.data() + value.size(), number).ec;
  if (error == std::errc::result_out_of_range) {
    throw SwfParseError(line, "directive " + key + " is out of range: \"" +
                                  value + "\"");
  }
  return error == std::errc() ? number : 0;
}

bool parse_directive(const std::string& comment, std::string* key,
                     std::string* value) {
  const std::size_t colon = comment.find(':');
  if (colon == std::string::npos) return false;
  *key = trim(comment.substr(0, colon));
  *value = trim(comment.substr(colon + 1));
  if (key->empty() || value->empty()) return false;
  for (const char c : *key) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) return false;
  }
  return true;
}

SwfTrace parse(std::istream& in) {
  SwfTrace trace;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string body = trim(line);
    if (body.empty()) continue;
    if (body.front() == ';') {
      ++trace.header.comment_lines;
      std::string key;
      std::string value;
      if (parse_directive(trim(body.substr(1)), &key, &value)) {
        trace.header.directives[key] = value;
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
    const std::vector<std::string> fields = split_fields(body);
    if (fields.size() < 18) {
      throw SwfParseError(line_no, "expected 18 fields, got " +
                                       std::to_string(fields.size()));
    }
    TraceJob job;
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
    trace.jobs.push_back(job);
  }
  return trace;
}

SwfTrace parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

std::string format_number(double value) {
  char buffer[48];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

std::string to_text(const SwfTrace& trace) {
  std::ostringstream out;
  const SwfHeader& header = trace.header;
  if (header.unix_start_time != 0) {
    out << "; UnixStartTime: " << header.unix_start_time << "\n";
  }
  if (header.max_nodes > 0) out << "; MaxNodes: " << header.max_nodes << "\n";
  if (header.max_procs > 0) out << "; MaxProcs: " << header.max_procs << "\n";
  for (const auto& [key, value] : header.directives) {
    if (key == "MaxNodes" || key == "MaxProcs" || key == "UnixStartTime") {
      continue;
    }
    out << "; " << key << ": " << value << "\n";
  }
  for (const TraceJob& job : trace.jobs) {
    out << job.job_number << ' ' << format_number(job.submit) << ' '
        << format_number(job.wait) << ' ' << format_number(job.run_time) << ' '
        << job.used_procs << ' ' << format_number(job.avg_cpu_seconds) << ' '
        << format_number(job.used_memory_kb) << ' ' << job.requested_procs
        << ' ' << format_number(job.requested_time) << ' '
        << format_number(job.requested_memory_kb) << ' ' << job.status << ' '
        << job.user_id << ' ' << job.group_id << ' ' << job.executable << ' '
        << job.queue << ' ' << job.partition << ' ' << job.preceding_job << ' '
        << format_number(job.think_time) << "\n";
  }
  return out.str();
}

}  // namespace stream_oracle

/// Every field of a record as a 64-bit word; doubles by bit pattern, so
/// -0.0 against 0.0 and NaN payloads count.
std::array<std::uint64_t, 19> words(const TraceJob& job) {
  const auto w = [](long long v) { return static_cast<std::uint64_t>(v); };
  const auto b = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {w(job.job_number),   b(job.submit),
          b(job.wait),         b(job.run_time),
          w(job.used_procs),   b(job.avg_cpu_seconds),
          b(job.used_memory_kb), w(job.requested_procs),
          b(job.requested_time), b(job.requested_memory_kb),
          w(job.status),       w(job.user_id),
          w(job.group_id),     w(job.executable),
          w(job.queue),        w(job.partition),
          w(job.preceding_job), b(job.think_time),
          w(job.line)};
}

/// What parsing a text yields: the trace, or the error's line and text.
struct ParseOutcome {
  SwfTrace trace;
  bool threw = false;
  int line = 0;
  std::string what;
};

template <typename Parse>
ParseOutcome outcome_of(Parse parse, const std::string& text) {
  ParseOutcome outcome;
  try {
    outcome.trace = parse(text);
  } catch (const SwfParseError& error) {
    outcome.threw = true;
    outcome.line = error.line();
    outcome.what = error.what();
  }
  return outcome;
}

/// Asserts the in-place parser reads `text` exactly as the oracle does;
/// returns whether the oracle rejected it.
bool expect_same_parse(const std::string& text) {
  const ParseOutcome want = outcome_of(stream_oracle::parse_text, text);
  const ParseOutcome got = outcome_of(parse_swf_text, text);
  const auto shown = [&text] {
    std::string escaped;
    for (const char c : text) {
      if (c == '\n') {
        escaped += "\\n\n";
      } else if (std::isprint(static_cast<unsigned char>(c)) != 0) {
        escaped += c;
      } else {
        char code[8];
        std::snprintf(code, sizeof(code), "\\x%02x",
                      static_cast<unsigned char>(c));
        escaped += code;
      }
    }
    return escaped;
  };
  EXPECT_EQ(got.threw, want.threw) << got.what << want.what << "\n"
                                    << shown();
  if (want.threw || got.threw) {
    EXPECT_EQ(got.line, want.line) << shown();
    EXPECT_EQ(got.what, want.what) << shown();
    return want.threw;
  }
  const SwfHeader& a = got.trace.header;
  const SwfHeader& b = want.trace.header;
  EXPECT_EQ(a.max_nodes, b.max_nodes) << shown();
  EXPECT_EQ(a.max_procs, b.max_procs) << shown();
  EXPECT_EQ(a.unix_start_time, b.unix_start_time) << shown();
  EXPECT_EQ(a.directives, b.directives) << shown();
  EXPECT_EQ(a.comment_lines, b.comment_lines) << shown();
  EXPECT_EQ(got.trace.jobs.size(), want.trace.jobs.size()) << shown();
  const std::size_t both =
      std::min(got.trace.jobs.size(), want.trace.jobs.size());
  for (std::size_t i = 0; i < both; ++i) {
    EXPECT_EQ(words(got.trace.jobs[i]), words(want.trace.jobs[i]))
        << "record " << i << "\n" << shown();
  }
  return false;
}

/// A record drawing its numbers from `number()`, its int fields from
/// `narrow()` and its long long fields from `wide()`, in field order.
template <typename Number, typename Narrow, typename Wide>
TraceJob record_from(Number number, Narrow narrow, Wide wide) {
  TraceJob job;
  job.job_number = wide();
  job.submit = number();
  job.wait = number();
  job.run_time = number();
  job.used_procs = narrow();
  job.avg_cpu_seconds = number();
  job.used_memory_kb = number();
  job.requested_procs = narrow();
  job.requested_time = number();
  job.requested_memory_kb = number();
  job.status = narrow();
  job.user_id = narrow();
  job.group_id = narrow();
  job.executable = narrow();
  job.queue = narrow();
  job.partition = narrow();
  job.preceding_job = wide();
  job.think_time = number();
  return job;
}

TEST(SwfWrite, MatchesPrintfReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> numbers = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 1.0 / 3.0, 2.5, 123.456,
      1e15, -1e15, std::nextafter(1e15, 0.0), std::nextafter(1e15, kInf),
      std::nextafter(-1e15, 0.0), std::nextafter(-1e15, -kInf),
      999999999999999.0, 999999999999999.5, 0x1p53 - 1, 0x1p53, 0x1p53 + 1,
      std::nextafter(0x1p53, kInf), -(0x1p53 - 1), 0x1p63, -0x1p63, 1e16,
      1e17, 99999999999999999.0, 1e21, 1e22, 1e300, 1e-4, 1e-5,
      0.000123456789, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      DBL_MIN / 3, DBL_MAX, -DBL_MAX, kInf, -kInf, kNan, -kNan};
  const std::vector<int> narrow = {0, 1, -1, 7, INT_MIN, INT_MAX};
  const std::vector<long long> wide = {0,         1,         -1,
                                       LLONG_MIN, LLONG_MAX, INT_MIN,
                                       INT_MAX,   1000000000000000LL};

  SwfTrace trace;
  trace.header.unix_start_time = LLONG_MIN;
  trace.header.max_nodes = 1024;
  trace.header.max_procs = INT_MAX;
  trace.header.directives["Note"] = "a note: with a colon";
  trace.header.directives["MaxNodes"] = "shadowed by the field";
  // Every special value in every field, by rotation.
  for (std::size_t k = 0; k < 2 * numbers.size(); ++k) {
    std::size_t f = k;
    trace.jobs.push_back(record_from(
        [&] { return numbers[f++ % numbers.size()]; },
        [&] { return narrow[f++ % narrow.size()]; },
        [&] { return wide[f++ % wide.size()]; }));
  }
  // Seeded random numbers: any bit pattern, integral values on both
  // sides of 1e15, and plain fractions.
  util::Rng rng(2017);
  const auto random_number = [&rng]() -> double {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return std::bit_cast<double>(rng());
      case 1:
        return static_cast<double>(
            rng.uniform_int(-4000000000000000LL, 4000000000000000LL));
      case 2:
        return rng.uniform(-1e7, 1e7);
      default:
        return static_cast<double>(rng.uniform_int(-4096, 4096)) / 64.0;
    }
  };
  for (int k = 0; k < 5000; ++k) {
    trace.jobs.push_back(record_from(
        random_number,
        [&rng] { return static_cast<int>(rng.uniform_int(INT_MIN, INT_MAX)); },
        [&rng] { return static_cast<long long>(rng()); }));
  }

  const std::string want = stream_oracle::to_text(trace);
  const std::string got = to_swf_text(trace);
  // Line by line first, so a failure shows the record.
  std::istringstream got_lines(got);
  std::istringstream want_lines(want);
  std::string got_line;
  std::string want_line;
  while (std::getline(want_lines, want_line)) {
    ASSERT_TRUE(std::getline(got_lines, got_line));
    ASSERT_EQ(got_line, want_line);
  }
  EXPECT_EQ(got, want);
  std::ostringstream streamed;
  write_swf(streamed, trace);
  EXPECT_EQ(streamed.str(), want);
}

/// A copy of `lines` with one to four seeded mutations: a separator
/// turned into another whitespace class, leading or trailing blanks,
/// extra or missing fields, a NUL byte, an inserted `;` or blank line,
/// a field swapped for a malformed or edge-case token.  Joined with LF,
/// CRLF or mixed endings, with or without the final newline.
std::string mutated_text(std::vector<std::string> lines, util::Rng& rng) {
  const std::vector<std::string> blanks = {
      " ", "\t", "\v", "\f", "\r", "  ", " \t\v\f\r "};
  const std::vector<std::string> comments = {
      "; Note: hello",        ";Computer:  SP2 ",
      "; free comment",       ";",
      ";   ",                 "; : value",
      "; Key:",               "; Max Nodes: 3",
      "; MaxNodes: 12 nodes", "; MaxProcs: 64",
      "; UnixStartTime: -5",  "; MaxNodes: 99999999999",
      "\t; MaxProcs:\v8\r",   "; MaxNodes: abc",
      ";Key\vWord: 1",        "; Note:\f\f",
      std::string("; Nul: a\0b", 11)};
  const std::vector<std::string> tokens = {
      "abc", "nan", "inf", "1e999", "1e-999", "8.0", "+1", "0x10", "-0",
      "4294967304", "1e300", ".5", "5.", "-", "2.5", "-2147483649"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto blank = [&] { return blanks[pick(blanks.size())]; };
  // A random space in `line` (npos when it has none).
  const auto some_space = [&](const std::string& line) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == ' ') at.push_back(i);
    }
    return at.empty() ? std::string::npos : at[pick(at.size())];
  };
  const auto some_place = [&] {
    return lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1));
  };

  for (std::int64_t m = rng.uniform_int(1, 4); m > 0; --m) {
    std::string& line = lines[pick(lines.size())];
    const std::size_t space = some_space(line);
    switch (rng.uniform_int(0, 8)) {
      case 0:
        if (space != std::string::npos) line.replace(space, 1, blank());
        break;
      case 1:
        line.insert(0, blank());
        break;
      case 2:
        line += blank();
        break;
      case 3:
        line += " 7 8.5";
        break;
      case 4:  // the field after `space` goes, with its separator
        if (space != std::string::npos) {
          const std::size_t next = line.find(' ', space + 1);
          line.erase(space, next == std::string::npos ? next : next - space);
        }
        break;
      case 5:
        line.insert(pick(line.size() + 1), 1, '\0');
        break;
      case 6:
        lines.insert(some_place(), comments[pick(comments.size())]);
        break;
      case 7:
        lines.insert(some_place(), rng.bernoulli(0.5) ? "" : blank());
        break;
      default:  // the field after `space` is swapped for another token
        if (space != std::string::npos) {
          const std::size_t next = line.find(' ', space + 1);
          line.replace(space + 1,
                       next == std::string::npos ? next : next - space - 1,
                       tokens[pick(tokens.size())]);
        }
    }
  }
  const std::int64_t endings = rng.uniform_int(0, 2);  // LF, CRLF, mixed
  std::string text;
  for (const std::string& line : lines) {
    const bool crlf = endings == 1 || (endings == 2 && rng.bernoulli(0.5));
    text += line + (crlf ? "\r\n" : "\n");
  }
  if (rng.bernoulli(0.3)) text.pop_back();
  return text;
}

TEST(SwfParse, MatchesStreamTokenizer) {
  // Valid records with integral, fractional and exponent-form numbers,
  // under a header of directives.
  util::Rng rng(42);
  std::vector<std::string> base = {"; Version: 2.2", "; MaxNodes: 64",
                                   "; MaxProcs: 128",
                                   "; UnixStartTime: 838012800"};
  const std::vector<std::string> forms = {"-1", "8.0", "1.5e3"};
  for (int r = 0; r < 12; ++r) {
    std::string record = std::to_string(r + 1);
    for (int f = 1; f < 18; ++f) {
      const std::int64_t form = rng.uniform_int(0, 4);
      record += ' ';
      if (form == 0) {
        record += std::to_string(rng.uniform_int(-1, 5000));
      } else if (form == 1) {
        record += stream_oracle::format_number(rng.uniform(0.0, 1e4));
      } else {
        record += forms[static_cast<std::size_t>(form - 2)];
      }
    }
    base.push_back(record);
  }

  int rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    rejected += expect_same_parse(mutated_text(base, rng)) ? 1 : 0;
    if (HasFailure()) return;
  }
  // Both sides of the comparison ran often.
  EXPECT_GT(rejected, 500);
  EXPECT_LT(rejected, 2500);
  for (const char* text : {"", "\n", "\r\n", " \t\v\f\r", "\n\n;\n",
                           "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0",
                           "\v1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\v"}) {
    expect_same_parse(text);
  }
}

// ---------------------------------------------------------------------------
// Shaping
// ---------------------------------------------------------------------------

TEST(SwfShape, FiltersAndCountsEveryRecord) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  ShapeReport report;
  const Workload workload = shaper.shape(fixture(), &report);
  EXPECT_EQ(report.parsed, 24);
  EXPECT_EQ(report.kept, 21);
  EXPECT_EQ(report.dropped_status, 2);        // failed + cancelled
  EXPECT_EQ(report.dropped_zero_runtime, 1);  // job 4
  EXPECT_EQ(report.dropped_no_size, 0);
  EXPECT_EQ(report.clamped_oversize, 1);      // job 5: 22 nodes -> 20
  EXPECT_EQ(report.kept + report.dropped(), report.parsed);
  EXPECT_EQ(workload.jobs.size(), 21u);
  EXPECT_EQ(workload.target_nodes, 20);
  const std::string summary = report.describe();
  EXPECT_NE(summary.find("kept 21"), std::string::npos);
  EXPECT_NE(summary.find("clamped 1"), std::string::npos);
}

TEST(SwfShape, SortsBySubmitAndNormalizesArrivals) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  const Workload workload = shaper.shape(fixture());
  ASSERT_FALSE(workload.jobs.empty());
  EXPECT_DOUBLE_EQ(workload.jobs.front().arrival, 0.0);
  double previous = 0.0;
  int seen_13 = -1;
  int seen_12 = -1;
  for (const WorkloadJob& job : workload.jobs) {
    EXPECT_GE(job.arrival, previous);
    previous = job.arrival;
    if (job.source_id == 13) seen_13 = job.index;
    if (job.source_id == 12) seen_12 = job.index;
  }
  // The out-of-order pair was sorted: job 13 (t=580) before 12 (t=600).
  ASSERT_GE(seen_13, 0);
  ASSERT_GE(seen_12, 0);
  EXPECT_LT(seen_13, seen_12);
}

TEST(SwfShape, RescalesProcsToNodes) {
  TraceShaper shaper;
  shaper.target_nodes = 20;  // same size as the source machine
  const Workload same = shaper.shape(fixture());
  EXPECT_EQ(same.jobs.front().nodes, 4);  // 8 procs / 2 per node
  // Fall-back sizing from used_procs: job 6 ran on 6 procs -> 3 nodes.
  for (const WorkloadJob& job : same.jobs) {
    if (job.source_id == 6) {
      EXPECT_EQ(job.nodes, 3);
    }
  }

  shaper.target_nodes = 10;  // half the machine: widths halve too
  ShapeReport report;
  const Workload half = shaper.shape(fixture(), &report);
  EXPECT_EQ(half.jobs.front().nodes, 2);
  // Job 5 (22 source nodes) lands at 11 and is clamped to the ceiling.
  EXPECT_EQ(report.clamped_oversize, 1);
  for (const WorkloadJob& job : half.jobs) {
    EXPECT_GE(job.nodes, 1);
    EXPECT_LE(job.nodes, 10);
  }
}

// A record far wider than the header's machine rescales past INT_MAX:
// 4194304 processors x 1024 is 2^32, which a conversion to int wrapped
// to 0 (so 1 node, not clamped) and 4194305 to 1024 (not clamped).
TEST(SwfShape, OversizeRescaleClampsNeverWraps) {
  const SwfTrace trace = parse_swf_text(
      "; MaxNodes: 1\n"
      "; MaxProcs: 1\n"
      "1 0 0 10 4194304 -1 -1 4194304 60 -1 1 1 1 1 1 1 -1 0\n"
      "2 5 0 10 4194305 -1 -1 4194305 60 -1 1 1 1 1 1 1 -1 0\n");
  TraceShaper shaper;
  shaper.target_nodes = 1024;
  ShapeReport report;
  const Workload workload = shaper.shape(trace, &report);
  ASSERT_EQ(workload.jobs.size(), 2u);
  EXPECT_EQ(workload.jobs[0].nodes, 1024);
  EXPECT_EQ(workload.jobs[1].nodes, 1024);
  EXPECT_EQ(report.clamped_oversize, 2);
}

// Processors per node near INT_MAX: rounding up by `procs + ppn - 1`
// overflowed, and a one-node record on a one-node machine shaped to 1
// node instead of the whole target.
TEST(SwfShape, WideNodesRoundUpNeverOverflow) {
  const SwfTrace trace = parse_swf_text(
      "; MaxNodes: 1\n"
      "; MaxProcs: 2147483647\n"
      "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n"
      "2 5 0 10 2147483647 -1 -1 2147483647 60 -1 1 1 1 1 1 1 -1 0\n");
  TraceShaper shaper;
  shaper.target_nodes = 16;
  ShapeReport report;
  const Workload workload = shaper.shape(trace, &report);
  ASSERT_EQ(workload.jobs.size(), 2u);
  EXPECT_EQ(workload.jobs[0].nodes, 16);
  EXPECT_EQ(workload.jobs[1].nodes, 16);
  EXPECT_EQ(report.clamped_oversize, 0);
}

TEST(SwfShape, JobCapIsCountedNotSilent) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  shaper.max_jobs = 5;
  ShapeReport report;
  const Workload capped = shaper.shape(fixture(), &report);
  EXPECT_EQ(capped.jobs.size(), 5u);
  EXPECT_EQ(report.dropped_cap, 16);
  EXPECT_EQ(report.kept + report.dropped(), report.parsed);
}

// ---------------------------------------------------------------------------
// Malleability annotation
// ---------------------------------------------------------------------------

TEST(Malleability, MinNodesPolicies) {
  MalleabilityConfig config;
  config.policy = Malleability::Rigid;
  EXPECT_EQ(min_nodes_for(12, config), 12);
  config.policy = Malleability::Pow2Halving;
  static_assert(kPow2Halvings == 2);
  EXPECT_EQ(min_nodes_for(20, config), 5);
  EXPECT_EQ(min_nodes_for(8, config), 2);
  EXPECT_EQ(min_nodes_for(3, config), 1);
  EXPECT_EQ(min_nodes_for(1, config), 1);
  config.policy = Malleability::FractionOfRequest;
  config.min_fraction = 0.3;
  EXPECT_EQ(min_nodes_for(8, config), 3);  // ceil(2.4)
  config.min_fraction = 0.0;
  EXPECT_EQ(min_nodes_for(8, config), 1);
  EXPECT_THROW(min_nodes_for(0, config), std::invalid_argument);
}

TEST(Malleability, ShaperAnnotatesBounds) {
  TraceShaper shaper;
  shaper.target_nodes = 20;

  shaper.malleability.policy = Malleability::Rigid;
  for (const WorkloadJob& job : shaper.shape(fixture()).jobs) {
    EXPECT_EQ(job.min_nodes, job.nodes);
    EXPECT_EQ(job.max_nodes, job.nodes);
  }

  shaper.malleability.policy = Malleability::Pow2Halving;
  for (const WorkloadJob& job : shaper.shape(fixture()).jobs) {
    EXPECT_EQ(job.min_nodes, std::max(1, job.nodes >> kPow2Halvings));
    EXPECT_EQ(job.max_nodes, job.nodes);  // no expand_limit: no growth
  }

  shaper.malleability.policy = Malleability::FractionOfRequest;
  shaper.malleability.min_fraction = 0.5;
  shaper.malleability.expand_limit = 20;
  for (const WorkloadJob& job : shaper.shape(fixture()).jobs) {
    EXPECT_GE(job.min_nodes, 1);
    EXPECT_LE(job.min_nodes, job.nodes);
    EXPECT_EQ(job.max_nodes, 20);  // every job may grow to the ceiling
  }
}

// ---------------------------------------------------------------------------
// Round trip: the generator and the ingester share one job model
// ---------------------------------------------------------------------------

TEST(SwfRoundTrip, FeitelsonSerializeParseShapeIsIdentity) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull}) {
    FeitelsonParams params;
    params.jobs = 250;
    params.max_size = 20;
    params.max_runtime = 1500.0;
    params.seed = seed;
    const auto jobs = generate_feitelson(params);

    // Two bound policies: shrink-only pow2 halvings, and
    // fraction-of-request with room to expand to the machine size.
    MalleabilityConfig pow2;
    pow2.policy = Malleability::Pow2Halving;
    MalleabilityConfig fraction;
    fraction.policy = Malleability::FractionOfRequest;
    fraction.min_fraction = 0.5;
    fraction.expand_limit = params.max_size;
    for (const MalleabilityConfig& bounds : {pow2, fraction}) {
      const Workload direct = from_feitelson(jobs, params.max_size, bounds);

      // machine_nodes = max_size so expand bounds survive the trip even
      // when no generated job happens to reach the maximum.
      const SwfTrace serialized = trace_from_feitelson(jobs, params.max_size);
      const SwfTrace reparsed = parse_swf_text(to_swf_text(serialized));
      TraceShaper shaper;
      shaper.malleability = bounds;
      ShapeReport report;
      const Workload ingested = shaper.shape(reparsed, &report);

      EXPECT_EQ(report.parsed, static_cast<int>(jobs.size()));
      EXPECT_EQ(report.dropped(), 0) << "seed " << seed;
      ASSERT_EQ(ingested.jobs.size(), direct.jobs.size()) << "seed " << seed;
      // The shaper starts arrivals at the first job; the generator's
      // clock starts one interarrival earlier.
      const double first = direct.jobs.front().arrival;
      for (std::size_t i = 0; i < direct.jobs.size(); ++i) {
        EXPECT_NEAR(ingested.jobs[i].arrival, direct.jobs[i].arrival - first,
                    1e-9);
        EXPECT_EQ(ingested.jobs[i].nodes, direct.jobs[i].nodes);
        EXPECT_NEAR(ingested.jobs[i].runtime, direct.jobs[i].runtime, 1e-9);
        EXPECT_EQ(ingested.jobs[i].min_nodes, direct.jobs[i].min_nodes);
        EXPECT_EQ(ingested.jobs[i].max_nodes, direct.jobs[i].max_nodes);
        EXPECT_EQ(ingested.jobs[i].source_id, direct.jobs[i].source_id);
      }
    }
  }
}

TEST(SwfRoundTrip, SerializedHeaderSurvives) {
  FeitelsonParams params;
  params.jobs = 40;
  params.seed = 7;
  const SwfTrace trace = trace_from_feitelson(generate_feitelson(params));
  const std::string text = to_swf_text(trace);
  EXPECT_NE(text.find("; MaxNodes: "), std::string::npos);
  EXPECT_NE(text.find("; MaxProcs: "), std::string::npos);
  const SwfTrace reparsed = parse_swf_text(text);
  EXPECT_EQ(reparsed.header.max_nodes, trace.header.max_nodes);
  EXPECT_EQ(reparsed.header.max_procs, trace.header.max_procs);
  EXPECT_EQ(reparsed.jobs.size(), trace.jobs.size());
}

// ---------------------------------------------------------------------------
// JobPlan conversion and driver parity
// ---------------------------------------------------------------------------

TEST(Plans, BoundsOverrideModelRequestAndRigidJobsRunFixed) {
  Workload workload;
  workload.target_nodes = 16;
  WorkloadJob malleable;
  malleable.nodes = 8;
  malleable.runtime = 100.0;
  malleable.min_nodes = 2;
  malleable.max_nodes = 12;
  WorkloadJob rigid;
  rigid.index = 1;
  rigid.nodes = 4;
  rigid.runtime = 50.0;
  rigid.min_nodes = 4;
  rigid.max_nodes = 4;
  workload.jobs = {malleable, rigid};

  drv::PlanShape shape;
  shape.steps = 10;
  shape.flexible = true;
  const auto plans = drv::plans_from_workload(workload, shape);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].model.request.min_procs, 2);
  EXPECT_EQ(plans[0].model.request.max_procs, 12);
  EXPECT_TRUE(plans[0].flexible);
  EXPECT_EQ(plans[0].submit_nodes, 8);
  // 10 steps of runtime/steps at the submit size.
  EXPECT_NEAR(plans[0].model.step_seconds(8), 10.0, 1e-9);
  EXPECT_FALSE(plans[1].flexible);  // no room to reconfigure

  drv::PlanShape bad;
  bad.steps = 0;
  EXPECT_THROW(drv::plans_from_workload(workload, bad), std::invalid_argument);
}

drv::WorkloadMetrics run_plans(const std::vector<drv::JobPlan>& plans,
                               drv::DriverConfig config) {
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, std::move(config));
  for (const drv::JobPlan& plan : plans) driver.submit_at(plan);
  return driver.run();
}

TEST(DriverParity, SwfReplayThroughSingleMemberFederationIsIdentical) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  shaper.malleability.policy = Malleability::Pow2Halving;
  const Workload workload = shaper.shape(fixture());
  drv::PlanShape shape;
  shape.steps = 10;
  const auto plans = drv::plans_from_workload(workload, shape);

  drv::DriverConfig direct;
  direct.rms.nodes = 20;
  const auto direct_metrics = run_plans(plans, direct);

  drv::DriverConfig federated;
  fed::ClusterSpec member;
  member.name = "solo";
  member.rms.nodes = 20;
  federated.federation.clusters = {member};
  const auto fed_metrics = run_plans(plans, federated);

  EXPECT_EQ(fed_metrics.jobs, direct_metrics.jobs);
  EXPECT_EQ(fed_metrics.makespan, direct_metrics.makespan);
  EXPECT_EQ(fed_metrics.utilization, direct_metrics.utilization);
  EXPECT_EQ(fed_metrics.wait.mean, direct_metrics.wait.mean);
  EXPECT_EQ(fed_metrics.wait.p95, direct_metrics.wait.p95);
  EXPECT_EQ(fed_metrics.wait.max, direct_metrics.wait.max);
  EXPECT_EQ(fed_metrics.execution.mean, direct_metrics.execution.mean);
  EXPECT_EQ(fed_metrics.completion.mean, direct_metrics.completion.mean);
  EXPECT_EQ(fed_metrics.expands, direct_metrics.expands);
  EXPECT_EQ(fed_metrics.shrinks, direct_metrics.shrinks);
  EXPECT_EQ(fed_metrics.checks, direct_metrics.checks);
  EXPECT_EQ(fed_metrics.aborted_expands, direct_metrics.aborted_expands);
  EXPECT_EQ(fed_metrics.bytes_redistributed,
            direct_metrics.bytes_redistributed);
  EXPECT_EQ(fed_metrics.redistribution_seconds,
            direct_metrics.redistribution_seconds);
  EXPECT_EQ(fed_metrics.schedule_requests, direct_metrics.schedule_requests);
  EXPECT_EQ(fed_metrics.schedule_passes, direct_metrics.schedule_passes);
  // The replay must actually exercise the DMR machinery to be a
  // meaningful lock on its semantics.
  EXPECT_GT(direct_metrics.jobs, 0);
  EXPECT_GT(direct_metrics.checks, 0);
  EXPECT_GT(direct_metrics.shrinks + direct_metrics.expands, 0);
}

}  // namespace
