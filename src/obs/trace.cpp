#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace dmr::obs {

namespace {

constexpr double kUsPerSecond = 1.0e6;

void write_number(std::ostream& out, double value) {
  // Trace timestamps/durations/values: plain decimal, trimmed.
  std::ostringstream text;
  text.precision(3);
  text << std::fixed << value;
  std::string rendered = text.str();
  const std::size_t dot = rendered.find('.');
  std::size_t last = rendered.find_last_not_of('0');
  if (last == dot) --last;
  out << rendered.substr(0, last + 1);
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceRecorder::push(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ring_.push_back(std::move(event));
}

void TraceRecorder::set_process_name(std::uint32_t pid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  process_names_[pid] = std::move(name);
}

void TraceRecorder::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                    std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

void TraceRecorder::complete(std::uint32_t pid, std::uint32_t tid,
                             double ts_seconds, double wall_dur_us,
                             std::string name, std::string args) {
  push({.ts_us = ts_seconds * kUsPerSecond,
        .dur_us = wall_dur_us < 0.0 ? 0.0 : wall_dur_us,
        .pid = pid,
        .tid = tid,
        .ph = 'X',
        .name = std::move(name),
        .args = std::move(args)});
}

void TraceRecorder::instant(std::uint32_t pid, std::uint32_t tid,
                            double ts_seconds, std::string name,
                            std::string args) {
  push({.ts_us = ts_seconds * kUsPerSecond,
        .pid = pid,
        .tid = tid,
        .ph = 'i',
        .name = std::move(name),
        .args = std::move(args)});
}

void TraceRecorder::async(char ph, std::uint32_t pid, double ts_seconds,
                          std::string cat, std::uint64_t id,
                          std::string name, std::string args) {
  push({.ts_us = ts_seconds * kUsPerSecond,
        .id = id,
        .pid = pid,
        .ph = ph,
        .name = std::move(name),
        .cat = std::move(cat),
        .args = std::move(args)});
}

void TraceRecorder::counter(std::uint32_t pid, double ts_seconds,
                            std::string name, double value) {
  push({.ts_us = ts_seconds * kUsPerSecond,
        .value = value,
        .pid = pid,
        .ph = 'C',
        .name = std::move(name)});
}

std::size_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << dropped_ << "},\"traceEvents\":[";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    separator();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& [track, name] : thread_names_) {
    separator();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << track.first
        << ",\"tid\":" << track.second << ",\"args\":{\"name\":\""
        << json_escape(name) << "\"}}";
  }
  double last_ts = 0.0;
  for (const TraceEvent& event : ring_) {
    separator();
    out << "{\"ph\":\"" << event.ph << "\",\"ts\":";
    write_number(out, event.ts_us);
    out << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid
        << ",\"name\":\"" << json_escape(event.name) << "\"";
    if (event.ph == 'X') {
      out << ",\"dur\":";
      write_number(out, event.dur_us);
    }
    if (event.ph == 'b' || event.ph == 'n' || event.ph == 'e') {
      out << ",\"cat\":\"" << json_escape(event.cat) << "\",\"id\":\"0x"
          << std::hex << event.id << std::dec << "\"";
    }
    if (event.ph == 'i') out << ",\"s\":\"t\"";
    if (event.ph == 'C') {
      out << ",\"args\":{\"value\":";
      write_number(out, event.value);
      out << "}";
    } else if (!event.args.empty()) {
      out << ",\"args\":{" << event.args << "}";
    }
    out << "}";
    last_ts = std::max(last_ts, event.ts_us);
  }
  if (dropped_ > 0) {
    // The loss is on the timeline itself, not only in otherData: a
    // truncated trace must read as truncated.
    separator();
    out << "{\"ph\":\"i\",\"ts\":";
    write_number(out, last_ts);
    out << ",\"pid\":0,\"tid\":0,\"name\":\"trace ring overflow: " << dropped_
        << " events dropped\",\"s\":\"g\"}";
  }
  out << "]}\n";
}

std::string TraceRecorder::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("TraceRecorder: cannot write " + path);
  }
  write_json(out);
}

}  // namespace dmr::obs
