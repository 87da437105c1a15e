#include "obs/validate.hpp"

#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace dmr::obs {

namespace {

// --- structural rules -------------------------------------------------------

/// Chrome trace pids and tids are 32-bit, as TraceRecorder writes them.
constexpr std::int64_t kMaxTrackId = std::numeric_limits<std::uint32_t>::max();

struct TrackState {
  int depth = 0;
  double last_ts = -1.0;
};

}  // namespace

TraceValidation validate_trace(const std::string& json) {
  TraceValidation result;
  JsonValue root;
  std::string error;
  if (!parse_json(json, root, error)) {
    result.errors.push_back("JSON parse error: " + error);
    return result;
  }
  if (root.kind != JsonValue::Kind::Object) {
    result.errors.push_back("top level is not an object");
    return result;
  }
  if (const JsonValue* other = root.field("otherData")) {
    const auto dropped =
        json_integer(other->field("dropped_events"), 0, kJsonExactInteger, 0);
    if (!dropped) {
      result.errors.push_back("malformed otherData.dropped_events");
      return result;
    }
    result.dropped = static_cast<std::uint64_t>(*dropped);
  }
  const JsonValue* events = root.field("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::Array) {
    result.errors.push_back("missing traceEvents array");
    return result;
  }

  std::map<std::pair<std::uint32_t, std::uint32_t>, TrackState> sync_tracks;
  std::map<std::string, TrackState> async_tracks;  // "pid/cat/id"
  std::map<std::string, double> counter_tracks;    // "pid/name" -> last ts
  std::set<std::pair<std::uint32_t, std::uint32_t>> span_tracks;

  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& event = events->items[i];
    const auto where = [&] { return " (event " + std::to_string(i) + ")"; };
    if (event.kind != JsonValue::Kind::Object) {
      result.errors.push_back("event is not an object" + where());
      continue;
    }
    const std::string ph = json_string(event.field("ph"));
    if (ph.size() != 1) {
      result.errors.push_back("missing or malformed ph" + where());
      continue;
    }
    if (ph == "M") continue;  // metadata carries no timestamp
    const JsonValue* ts_field = event.field("ts");
    if (ts_field == nullptr || ts_field->kind != JsonValue::Kind::Number) {
      result.errors.push_back("missing ts" + where());
      continue;
    }
    const double ts = ts_field->number;
    const auto pid_value = json_integer(event.field("pid"), 0, kMaxTrackId, 0);
    if (!pid_value) {
      result.errors.push_back("malformed pid" + where());
      continue;
    }
    const auto tid_value = json_integer(event.field("tid"), 0, kMaxTrackId, 0);
    if (!tid_value) {
      result.errors.push_back("malformed tid" + where());
      continue;
    }
    const auto pid = static_cast<std::uint32_t>(*pid_value);
    const auto tid = static_cast<std::uint32_t>(*tid_value);
    const std::string name = json_string(event.field("name"));
    // End events ("E" sync, "e" nestable async) close the span the
    // matching begin named; the format leaves their name optional.
    if (name.empty() && ph != "E" && ph != "e") {
      result.errors.push_back("missing name on '" + ph + "' event" + where());
    }
    ++result.events;

    const char kind = ph[0];
    switch (kind) {
      case 'B':
      case 'E': {
        TrackState& track = sync_tracks[{pid, tid}];
        if (ts < track.last_ts) {
          result.errors.push_back("timestamp moved backwards on track " +
                                  std::to_string(pid) + "/" +
                                  std::to_string(tid) + where());
        }
        track.last_ts = ts;
        span_tracks.insert({pid, tid});
        if (kind == 'B') {
          ++track.depth;
        } else {
          if (track.depth == 0) {
            result.errors.push_back("'E' without matching 'B' on track " +
                                    std::to_string(pid) + "/" +
                                    std::to_string(tid) + where());
          } else {
            --track.depth;
            ++result.spans;
          }
        }
        break;
      }
      case 'X': {
        TrackState& track = sync_tracks[{pid, tid}];
        if (ts < track.last_ts) {
          result.errors.push_back("timestamp moved backwards on track " +
                                  std::to_string(pid) + "/" +
                                  std::to_string(tid) + where());
        }
        track.last_ts = ts;
        span_tracks.insert({pid, tid});
        if (json_number(event.field("dur"), -1.0) < 0.0) {
          result.errors.push_back("'X' event without a dur" + where());
        }
        ++result.spans;
        break;
      }
      case 'b':
      case 'n':
      case 'e': {
        const std::string cat = json_string(event.field("cat"));
        const std::string id = json_string(event.field("id"));
        if (cat.empty() || id.empty()) {
          result.errors.push_back("async event without cat/id" + where());
          break;
        }
        TrackState& track =
            async_tracks[std::to_string(pid) + "/" + cat + "/" + id];
        if (ts < track.last_ts) {
          result.errors.push_back("timestamp moved backwards in async scope " +
                                  cat + ":" + id + where());
        }
        track.last_ts = ts;
        if (kind == 'b') {
          ++track.depth;
        } else if (kind == 'e') {
          if (track.depth == 0) {
            result.errors.push_back("async 'e' without 'b' in scope " + cat +
                                    ":" + id + where());
          } else {
            --track.depth;
            ++result.async_spans;
          }
        } else {
          ++result.instants;
        }
        break;
      }
      case 'i': {
        ++result.instants;
        break;
      }
      case 'C': {
        const JsonValue* args = event.field("args");
        if (args == nullptr || args->field("value") == nullptr) {
          result.errors.push_back("counter without args.value" + where());
          break;
        }
        double& last = counter_tracks
                           .try_emplace(std::to_string(pid) + "/" + name, -1.0)
                           .first->second;
        if (ts < last) {
          result.errors.push_back(
              "timestamp moved backwards on counter track '" + name + "'" +
              where());
        }
        last = ts;
        ++result.counter_events;
        break;
      }
      default:
        result.errors.push_back("unknown phase '" + ph + "'" + where());
    }
  }

  std::vector<std::string> open;
  for (const auto& [track, state] : sync_tracks) {
    if (state.depth != 0) {
      open.push_back("track " + std::to_string(track.first) + "/" +
                     std::to_string(track.second) + " has " +
                     std::to_string(state.depth) + " unclosed 'B' span(s)");
    }
  }
  for (const auto& [scope, state] : async_tracks) {
    if (state.depth != 0) {
      open.push_back("async scope " + scope + " has " +
                     std::to_string(state.depth) + " unclosed span(s)");
    }
  }
  // A trace that dropped ring events can legitimately lose closing
  // events: the loss is already reported (dropped > 0), so imbalance
  // demotes to a warning there — but balance failures in a *complete*
  // trace are hard errors.
  auto& sink = result.dropped > 0 ? result.warnings : result.errors;
  sink.insert(sink.end(), open.begin(), open.end());

  // A structurally well-formed wrapper holding zero events validates
  // every rule vacuously; a recorder that captured nothing is broken,
  // not clean.
  if (result.events == 0) {
    result.errors.push_back(
        "trace contains no events (an empty timeline passes every "
        "structural rule vacuously; refusing to call it valid)");
  }

  result.tracks = static_cast<int>(span_tracks.size());
  result.counter_tracks = static_cast<int>(counter_tracks.size());
  result.ok = result.errors.empty();
  return result;
}

TraceValidation validate_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    TraceValidation result;
    result.errors.push_back("cannot read " + path);
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (text.str().empty()) {
    TraceValidation result;
    result.errors.push_back(path + " is empty (zero bytes, not a trace)");
    return result;
  }
  return validate_trace(text.str());
}

std::string TraceValidation::describe() const {
  std::ostringstream out;
  out << (ok ? "valid" : "INVALID") << ": " << events << " events, " << spans
      << " spans, " << async_spans << " async spans, " << instants
      << " instants, " << counter_events << " counter samples on "
      << counter_tracks << " counter tracks, " << tracks << " span tracks, "
      << dropped << " dropped";
  for (const auto& warning : warnings) out << "\n  warning: " << warning;
  for (const auto& error : errors) out << "\n  error: " << error;
  return out.str();
}

}  // namespace dmr::obs
