#include "obs/trace_sink.hpp"

#include <numeric>
#include <string>

#include "fed/federation.hpp"
#include "obs/json.hpp"
#include "redist/move.hpp"
#include "svc/metrics_window.hpp"
#include "util/clock.hpp"

namespace dmr::obs {

TraceSink::TraceSink(TraceRecorder& trace, const fed::Federation& federation)
    : trace_(trace),
      federation_(federation),
      pending_(static_cast<std::size_t>(federation.cluster_count()), 0) {
  trace_.set_process_name(0, "federation");
  trace_.set_thread_name(0, 0, "placement");
  for (int c = 0; c < federation.cluster_count(); ++c) {
    const auto pid = static_cast<std::uint32_t>(c + 1);
    trace_.set_process_name(pid, "cluster " + federation.cluster_name(c));
    trace_.set_thread_name(pid, 0, "schedule");
    trace_.set_thread_name(pid, 1, "reconfig");
  }
}

Interest TraceSink::interest() const {
  return kAllKinds & ~kinds(EventKind::kBlocked, EventKind::kDispatch);
}

void TraceSink::on_event(const Event& event) {
  const auto pid = static_cast<std::uint32_t>(event.member + 1);
  const auto id = static_cast<std::uint64_t>(event.job);
  const double now = event.now;
  const auto resize = [&event] {
    return "\"from\":" + std::to_string(event.old_size) +
           ",\"to\":" + std::to_string(event.new_size);
  };
  const rms::Job* job = event.job == kInvalidJob
                            ? nullptr
                            : &event.manager->job(event.job);
  const bool user_job = job != nullptr && !job->resizer;
  int& pending = pending_[static_cast<std::size_t>(event.member)];
  switch (event.kind) {
    case EventKind::kSubmitted:
      if (!user_job) return;
      trace_.async_begin(pid, now, "job", id, job->spec.name,
                         "\"requested_nodes\":" +
                             std::to_string(event.new_size));
      trace_.counter(pid, now, "queue depth", ++pending);
      return;
    case EventKind::kPlaced: {
      trace_.instant(
          0, 0, now, "place " + job->spec.name,
          "\"cluster\":\"" +
              json_escape(federation_.cluster_name(event.member)) +
              "\",\"policy\":\"" +
              json_escape(federation_.placement_policy().name()) +
              "\",\"nodes\":" + std::to_string(event.new_size));
      const std::vector<long long> placed = federation_.placements();
      trace_.counter(0, now, "placements",
                     static_cast<double>(std::accumulate(
                         placed.begin(), placed.end(), 0LL)));
      return;
    }
    case EventKind::kStarted:
      ++pass_started_;
      if (!user_job) return;
      --pending;
      trace_.async_instant(pid, now, "job", id, "start",
                           "\"nodes\":" + std::to_string(event.new_size));
      return;
    case EventKind::kExpanded:
      trace_.async_instant(pid, now, "job", id, "expand", resize());
      return;
    case EventKind::kShrinkBegun:
      trace_.async_begin(
          pid, now, "reconfig", id, "drain",
          "\"nodes\":" + std::to_string(event.old_size - event.new_size));
      open_drain_spans_.insert(event.job);
      return;
    case EventKind::kShrinkEnded:
      if (open_drain_spans_.erase(event.job) != 0) {
        trace_.async_end(pid, now, "reconfig", id, "drain");
      }
      trace_.async_instant(pid, now, "job", id, "shrink", resize());
      return;
    case EventKind::kFinished:
      if (open_drain_spans_.erase(event.job) != 0) {
        // A job can end while still draining; close its drain span so
        // the trace stays balanced.
        trace_.async_end(pid, now, "reconfig", id, "drain");
      }
      if (!user_job) return;
      if (job->start_time < 0.0) --pending;  // cancelled while queued
      trace_.counter(0, now, "completed jobs", ++completed_);
      trace_.async_end(pid, now, "job", id);
      return;
    case EventKind::kAllocChanged: {
      int allocated = 0;
      int running = 0;
      for (int c = 0; c < federation_.cluster_count(); ++c) {
        allocated += federation_.manager(c).allocated_nodes();
        running += federation_.manager(c).running_jobs();
      }
      trace_.counter(0, now, "allocated nodes", allocated);
      trace_.counter(0, now, "running jobs", running);
      return;
    }
    case EventKind::kPassBegin:
      pass_start_ = util::wall_seconds();
      passes_before_ = event.manager->counters().schedule_passes;
      pass_started_ = 0;
      return;
    case EventKind::kPass:
      trace_.complete(
          pid, 0, now, (util::wall_seconds() - pass_start_) * 1.0e6,
          "schedule",
          "\"passes\":" +
              std::to_string(event.manager->counters().schedule_passes -
                             passes_before_) +
              ",\"started\":" + std::to_string(pass_started_));
      trace_.counter(pid, now, "queue depth", pending);
      return;
    case EventKind::kNegotiateBegin:
    case EventKind::kApplyBegin:
      reconfig_start_ = util::wall_seconds();
      return;
    case EventKind::kNegotiated:
    case EventKind::kApplied: {
      const bool applied = event.kind == EventKind::kApplied;
      trace_.complete(
          pid, 1, now, (util::wall_seconds() - reconfig_start_) * 1.0e6,
          applied ? "apply" : "negotiate",
          "\"job\":" + std::to_string(event.job) + ",\"action\":\"" +
              to_string(event.action) + "\"" +
              (applied ? std::string(",\"aborted\":") +
                             (event.aborted ? "true" : "false")
                       : std::string()));
      if (!applied) return;
      const rms::Manager::Counters& counters = event.manager->counters();
      trace_.counter(pid, now, "reconfigs",
                     static_cast<double>(counters.expands + counters.shrinks));
      return;
    }
    case EventKind::kRedistributed:
      if (event.report->seconds > 0.0) {
        // The movement occupies [now, now + seconds] of simulated time;
        // both ends are known, so the span is recorded in one go.
        trace_.async_begin(pid, now, "redist", id,
                           event.action == Action::Expand
                               ? "redistribute (expand)"
                               : "redistribute (shrink)",
                           "\"bytes\":" +
                               std::to_string(event.report->bytes_moved) +
                               "," + resize());
        trace_.async_end(pid, now + event.report->seconds, "redist", id);
      }
      return;
    case EventKind::kSample:
      trace_.counter(0, now, "ring depth", event.sample->ring_depth);
      trace_.counter(0, now, "utilization", event.sample->utilization);
      return;
    default:
      return;
  }
}

}  // namespace dmr::obs
