#include "svc/snapshot.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/clock.hpp"

namespace dmr::svc {

namespace {

constexpr std::string_view kHeader = "dmrsvc-snapshot";
constexpr int kVersion = 1;

/// A submission record's fields, in wire order.
constexpr std::array<const char*, 11> kFields = {
    "tag",   "arrival",  "nodes",    "min_nodes",   "max_nodes", "runtime",
    "steps", "flexible", "moldable", "state_bytes", "partition"};

/// `text` cut at every newline; empty lines stay, so numbers hold.
std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t end; (end = text.find('\n', start)) != text.npos;
       start = end + 1) {
    lines.push_back(text.substr(start, end - start));
  }
  lines.push_back(text.substr(start));
  return lines;
}

/// The blank-separated fields of one line.
std::vector<std::string_view> fields_of(std::string_view line) {
  constexpr std::string_view kBlanks = " \t";
  std::vector<std::string_view> fields;
  std::size_t start = line.find_first_not_of(kBlanks);
  while (start != line.npos) {
    const std::size_t end = line.find_first_of(kBlanks, start);
    fields.push_back(line.substr(start, end - start));
    start = line.find_first_not_of(kBlanks, end);
  }
  return fields;
}

std::string quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

/// The whole of `text` as an integer of type T, at least `min`.
template <typename T>
T whole(std::string_view text, int line, const char* field,
        T min = std::numeric_limits<T>::min()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) {
    throw SnapshotParseError(line, field, quoted(text) + " is out of range");
  }
  if (error != std::errc() || stop != end) {
    throw SnapshotParseError(line, field,
                             quoted(text) + " is not a whole number");
  }
  if (value < min) {
    throw SnapshotParseError(line, field,
                             quoted(text) + " is below " + std::to_string(min));
  }
  return value;
}

/// The whole of `text` as a finite number >= 0.
double finite_nonnegative(std::string_view text, int line, const char* field) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  // from_chars also reads "inf" and "nan".
  if (error != std::errc() || stop != end || !std::isfinite(value) ||
      value < 0.0) {
    throw SnapshotParseError(line, field,
                             quoted(text) + " is not a finite number >= 0");
  }
  return value;
}

bool flag(std::string_view text, int line, const char* field) {
  if (text != "0" && text != "1") {
    throw SnapshotParseError(line, field, quoted(text) + " is not 0 or 1");
  }
  return text == "1";
}

}  // namespace

SnapshotParseError::SnapshotParseError(int line, const std::string& field,
                                       const std::string& what)
    : std::invalid_argument("snapshot parse error at line " +
                            std::to_string(line) + ", field '" + field +
                            "': " + what),
      line_(line),
      field_(field) {}

std::string Snapshot::serialize() const {
  std::ostringstream out;
  out.precision(17);  // round-trip doubles exactly
  out << kHeader << " v" << kVersion << " time=" << time
      << " n=" << submissions.size() << "\n";
  for (const JobRequest& request : submissions) {
    out << request.tag << ' ' << request.arrival << ' ' << request.nodes << ' '
        << request.min_nodes << ' ' << request.max_nodes << ' '
        << request.runtime << ' ' << request.steps << ' '
        << (request.flexible ? 1 : 0) << ' ' << (request.moldable ? 1 : 0)
        << ' ' << request.state_bytes << ' '
        << (request.partition.empty() ? "-" : request.partition) << "\n";
  }
  return out.str();
}

Snapshot Snapshot::deserialize(const std::string& text, ServiceConfig config) {
  Snapshot snapshot;
  snapshot.config = std::move(config);
  const std::vector<std::string_view> lines = lines_of(text);
  const std::vector<std::string_view> header = fields_of(lines[0]);
  if (header.size() != 4 || header[0] != kHeader) {
    throw SnapshotParseError(1, "header",
                             "expected 'dmrsvc-snapshot v1 time=T n=N'");
  }
  if (header[1] != "v" + std::to_string(kVersion)) {
    throw SnapshotParseError(1, "version",
                             "unsupported '" + std::string(header[1]) + "'");
  }
  if (!header[2].starts_with("time=")) {
    throw SnapshotParseError(1, "time", "expected time=T");
  }
  if (!header[3].starts_with("n=")) {
    throw SnapshotParseError(1, "n", "expected n=N");
  }
  snapshot.time = finite_nonnegative(header[2].substr(5), 1, "time");
  const std::size_t count = whole<std::size_t>(header[3].substr(2), 1, "n");
  // The count is untrusted: never reserve beyond the lines present.
  snapshot.submissions.reserve(std::min(count, lines.size() - 1));
  int line = 1;
  for (std::size_t i = 0; i < count; ++i) {
    ++line;
    const std::vector<std::string_view> fields =
        static_cast<std::size_t>(line) <= lines.size()
            ? fields_of(lines[static_cast<std::size_t>(line - 1)])
            : std::vector<std::string_view>{};
    if (fields.empty()) {
      throw SnapshotParseError(line, "record",
                               "truncated: n=" + std::to_string(count) +
                                   " but " + std::to_string(i) + " records");
    }
    if (fields.size() < kFields.size()) {
      throw SnapshotParseError(line, kFields[fields.size()], "missing");
    }
    if (fields.size() > kFields.size()) {
      throw SnapshotParseError(line, "record",
                               "junk after the last field: '" +
                                   std::string(fields[kFields.size()]) + "'");
    }
    JobRequest request;
    request.tag = whole<long long>(fields[0], line, kFields[0]);
    request.arrival = finite_nonnegative(fields[1], line, kFields[1]);
    request.nodes = whole<int>(fields[2], line, kFields[2], 1);
    request.min_nodes = whole<int>(fields[3], line, kFields[3]);
    request.max_nodes = whole<int>(fields[4], line, kFields[4]);
    request.runtime = finite_nonnegative(fields[5], line, kFields[5]);
    request.steps = whole<int>(fields[6], line, kFields[6], 1);
    request.flexible = flag(fields[7], line, kFields[7]);
    request.moldable = flag(fields[8], line, kFields[8]);
    request.state_bytes = whole<std::size_t>(fields[9], line, kFields[9]);
    if (fields[10] != "-") request.partition = std::string(fields[10]);
    snapshot.submissions.push_back(std::move(request));
  }
  // serialize() ends every line with a newline, so only an empty tail
  // may follow the last record.
  for (std::size_t rest = static_cast<std::size_t>(line); rest < lines.size();
       ++rest) {
    if (!lines[rest].empty()) {
      throw SnapshotParseError(static_cast<int>(rest + 1), "record",
                               "record beyond n=" + std::to_string(count));
    }
  }
  return snapshot;
}

Snapshot snapshot(const Service& service) {
  // A policy object keeps its own state, which a copy of the config
  // would share with every restore instead of copying.
  if (service.config().driver.federation.policy != nullptr) {
    throw std::invalid_argument(
        "snapshot: the federation runs a caller-supplied placement policy, "
        "whose state cannot be captured");
  }
  Snapshot captured;
  captured.config = service.config();
  // The observers stay with the live service: a restore replays the run
  // and would feed them every event a second time.  The restored one
  // attributes waits on its own whenever the live one does.
  ServiceConfig& config = captured.config;
  config.attribute_waits =
      config.attribute_waits || config.driver.hooks.attr != nullptr;
  config.driver.hooks = {};
  const std::deque<JobRequest>& log = service.submission_log();
  captured.submissions.assign(log.begin(), log.end());
  captured.time = service.now();
  return captured;
}

std::unique_ptr<Service> restore(const Snapshot& snapshot) {
  auto service = std::make_unique<Service>(snapshot.config);
  // Replay the accepted log through the same validated path, then run to
  // the captured instant.  All arrival events land on Lane::Arrival, so
  // the replayed interleaving matches the live one event for event.
  for (const JobRequest& request : snapshot.submissions) {
    if (!service->submit(request)) {
      throw std::logic_error("Snapshot: logged submission rejected on replay");
    }
  }
  service->advance_to(snapshot.time);
  return service;
}

std::string WhatIf::describe() const {
  std::ostringstream out;
  out << label << ":";
  if (add_nodes > 0) out << " +" << add_nodes << " nodes@member0";
  return out.str();
}

namespace {

ForkRun run_branch(const Snapshot& snap, const WhatIf* whatif, double horizon,
                   const std::string& label) {
  const double start = util::wall_seconds();
  std::unique_ptr<Service> service = restore(snap);
  if (whatif != nullptr && whatif->add_nodes > 0) {
    service->add_nodes(whatif->add_nodes);
  }
  service->advance_to(horizon);
  ForkRun run;
  run.label = label;
  run.last_sample = service->sample_records().empty()
                        ? MetricsSample{}
                        : service->sample_records().back();
  run.metrics = service->metrics();
  run.wall_seconds = util::wall_seconds() - start;
  return run;
}

}  // namespace

std::string ForkReport::to_json() const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"svc\":\"fork\",\"from\":" << from << ",\"horizon\":" << horizon
      << ",\"baseline_wait_p99\":" << baseline.last_sample.wait_p99
      << ",\"variant_wait_p99\":" << variant.last_sample.wait_p99
      << ",\"delta_wait_p99\":" << delta_wait_p99()
      << ",\"baseline_utilization\":" << baseline.last_sample.utilization
      << ",\"variant_utilization\":" << variant.last_sample.utilization
      << ",\"delta_utilization\":" << delta_utilization()
      << ",\"baseline_completed\":" << baseline.last_sample.completed_total
      << ",\"variant_completed\":" << variant.last_sample.completed_total
      << ",\"delta_completed\":" << delta_completed()
      << ",\"baseline_wall_seconds\":" << baseline.wall_seconds
      << ",\"variant_wall_seconds\":" << variant.wall_seconds << "}";
  return out.str();
}

ForkReport fork_and_run(const Snapshot& snapshot, const WhatIf& whatif,
                        double horizon) {
  if (!std::isfinite(horizon) || horizon <= snapshot.time) {
    throw std::invalid_argument(
        "fork_and_run: horizon not a finite time past the snapshot");
  }
  ForkReport report;
  report.from = snapshot.time;
  report.horizon = horizon;
  report.baseline = run_branch(snapshot, nullptr, horizon, "baseline");
  report.variant =
      run_branch(snapshot, &whatif, horizon,
                 whatif.label.empty() ? "variant" : whatif.label);
  return report;
}

}  // namespace dmr::svc
