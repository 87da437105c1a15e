#include "chk/auditor.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "dmr/build_info.hpp"
#include "fed/federation.hpp"
#include "obs/json.hpp"
#include "redist/move.hpp"
#include "rms/cluster.hpp"
#include "rms/manager.hpp"

namespace dmr::chk {

namespace {

std::string format_violation(const Violation& violation) {
  std::ostringstream out;
  out << violation.invariant << ": " << violation.message;
  if (violation.job != ::dmr::kInvalidJob) {
    out << " [job " << violation.job << "]";
  }
  out << " [t=" << violation.sim_time << "]";
  return out.str();
}

}  // namespace

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"report\":\"chk\",\"ok\":" << (ok() ? "true" : "false")
      << ",\"checks\":{\"conservation_audits\":" << conservation_audits
      << ",\"event_dispatches\":" << event_dispatches
      << ",\"federation_audits\":" << federation_audits
      << ",\"lifecycle_edges\":" << lifecycle_edges
      << ",\"placement_checks\":" << placement_checks
      << ",\"redist_reports\":" << redist_reports
      << ",\"total\":" << total_checks() << "}"
      << ",\"violation_count\":"
      << (static_cast<long long>(violations.size()) + dropped_violations)
      << ",\"dropped_violations\":" << dropped_violations << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) out << ",";
    out << "{\"invariant\":\"" << obs::json_escape(v.invariant) << "\",\"job\":"
        << v.job << ",\"message\":\"" << obs::json_escape(v.message)
        << "\",\"sim_time\":" << v.sim_time << "}";
  }
  out << "]," << ::dmr::bench_provenance_fields(1) << "}";
  return out.str();
}

std::string Report::describe() const {
  std::ostringstream out;
  if (ok()) {
    out << "chk: ok (" << total_checks() << " checks, 0 violations)";
    return out.str();
  }
  out << "chk: " << (static_cast<long long>(violations.size()) +
                     dropped_violations)
      << " violation(s) in " << total_checks() << " checks";
  for (const Violation& v : violations) out << "\n  " << format_violation(v);
  if (dropped_violations > 0)
    out << "\n  ... and " << dropped_violations << " more (cap reached)";
  return out.str();
}

const char* Auditor::phase_name(Phase phase) {
  switch (phase) {
    case Phase::Queued:
      return "queued";
    case Phase::Running:
      return "running";
    case Phase::Reconfiguring:
      return "reconfiguring";
    case Phase::Done:
      return "done";
  }
  return "?";
}

void Auditor::violate(const char* invariant, ::dmr::JobId job, double now,
                      std::string message) {
  if (report_.violations.size() < kMaxStoredViolations) {
    report_.violations.push_back(
        Violation{invariant, std::move(message), job, now});
  } else {
    ++report_.dropped_violations;
  }
}

void Auditor::lifecycle_edge(::dmr::JobId id, double now, Phase from, Phase to,
                             const char* edge) {
  ++report_.lifecycle_edges;
  const auto it = phases_.find(id);
  if (it == phases_.end()) {
    violate("job-lifecycle", id, now,
            std::string(edge) + " for a job never submitted");
    phases_[id] = to;  // adopt so one bad edge reports once, not cascades
    return;
  }
  if (it->second != from) {
    violate("job-lifecycle", id, now,
            std::string("illegal edge ") + phase_name(it->second) + " -> " +
                phase_name(to) + " on " + edge + " (expected " +
                phase_name(from) + ")");
  }
  it->second = to;
}

obs::Interest Auditor::interest() const {
  using K = obs::EventKind;
  return obs::kinds(K::kSubmitted, K::kPlaced, K::kStarted, K::kExpanded,
                    K::kShrinkBegun, K::kShrinkEnded, K::kFinished, K::kPass,
                    K::kDispatch, K::kRedistributed, K::kSample);
}

void Auditor::on_event(const obs::Event& event) {
  using K = obs::EventKind;
  const ::dmr::JobId id = event.job;
  const double now = event.now;
  switch (event.kind) {
    case K::kSubmitted:
      return on_job_submitted(id, now);
    case K::kPlaced:
      return on_placement(id, event.member, fed::kClusterIdStride, now);
    case K::kStarted:
      return on_job_started(id, now);
    case K::kExpanded:
      on_job_resized(id, now);
      break;
    case K::kShrinkBegun:
      on_shrink_begun(id, now);
      break;
    case K::kShrinkEnded:
      on_shrink_ended(id, now);
      break;
    case K::kFinished:
      return on_job_finished(id, now);
    case K::kPass:
      break;
    case K::kDispatch:
      return on_event_dispatch(now, event.dispatch.lane, event.dispatch.seq,
                               event.dispatch.clock, event.dispatch.watermark);
    case K::kRedistributed:
      // A modeled report has no buffer registry; it must account for
      // exactly the job's declared state bytes.
      return on_redist_report(*event.report, event.bytes, now);
    case K::kSample:
      // The service's steady heartbeat: audit the settled state.
      check_federation(*event.federation, now);
      for (int c = 0; c < event.federation->cluster_count(); ++c) {
        check_manager(event.federation->manager(c), now);
      }
      return;
    default:
      return;
  }
  // Every resize step and every schedule call ends with a conservation
  // sweep of the member it touched.
  check_manager(*event.manager, now);
}

void Auditor::on_job_submitted(::dmr::JobId id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.lifecycle_edges;
  const auto [it, inserted] = phases_.emplace(id, Phase::Queued);
  if (!inserted) {
    violate("job-lifecycle", id, now,
            std::string("resubmitted while ") + phase_name(it->second));
    it->second = Phase::Queued;
  }
}

void Auditor::on_job_started(::dmr::JobId id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lifecycle_edge(id, now, Phase::Queued, Phase::Running, "start");
}

void Auditor::on_job_resized(::dmr::JobId id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lifecycle_edge(id, now, Phase::Running, Phase::Running, "expand");
}

void Auditor::on_shrink_begun(::dmr::JobId id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lifecycle_edge(id, now, Phase::Running, Phase::Reconfiguring, "shrink-begin");
}

void Auditor::on_shrink_ended(::dmr::JobId id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lifecycle_edge(id, now, Phase::Reconfiguring, Phase::Running, "shrink-end");
}

void Auditor::on_job_finished(::dmr::JobId id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.lifecycle_edges;
  const auto it = phases_.find(id);
  if (it == phases_.end()) {
    violate("job-lifecycle", id, now, "finished but never submitted");
    phases_[id] = Phase::Done;
    return;
  }
  if (it->second == Phase::Done) {
    violate("job-lifecycle", id, now, "finished twice");
    return;
  }
  it->second = Phase::Done;
}

void Auditor::on_event_dispatch(double time, int lane, std::uint64_t seq,
                                double clock, std::uint64_t seq_watermark) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.event_dispatches;
  if (time < clock) {
    std::ostringstream msg;
    msg << "event (t=" << time << ", lane=" << lane << ", seq=" << seq
        << ") dispatched behind the clock " << clock;
    violate("event-order", ::dmr::kInvalidJob, clock, msg.str());
  }
  // Order is only enforceable between events that coexisted in the
  // queue: this event was already queued when the previous one popped
  // iff its seq is below the watermark recorded at that pop.  (An event
  // scheduled *during* the previous callback may legally land at the
  // same instant in a lower lane — mid-run arrivals do exactly this.)
  if (has_last_event_ && seq < last_watermark_) {
    const bool ordered = std::tie(last_time_, last_lane_, last_seq_) <=
                         std::tie(time, lane, seq);
    if (!ordered) {
      std::ostringstream msg;
      msg << "event (t=" << time << ", lane=" << lane << ", seq=" << seq
          << ") dispatched after (t=" << last_time_ << ", lane=" << last_lane_
          << ", seq=" << last_seq_ << ") it should have preceded";
      violate("event-order", ::dmr::kInvalidJob, clock, msg.str());
    }
  }
  has_last_event_ = true;
  last_time_ = time;
  last_lane_ = lane;
  last_seq_ = seq;
  last_watermark_ = seq_watermark;
}

void Auditor::on_placement(::dmr::JobId id, int member, ::dmr::JobId stride,
                           double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.placement_checks;
  const ::dmr::JobId lo = static_cast<::dmr::JobId>(member) * stride;
  if (id <= lo || id > lo + stride) {
    std::ostringstream msg;
    msg << "placed id on member " << member << " outside its range (" << lo
        << ", " << lo + stride << "]";
    violate("fed-id-range", id, now, msg.str());
  }
}

void Auditor::check_federation(const fed::Federation& federation, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.federation_audits;
  const ::dmr::JobId stride = fed::kClusterIdStride;
  for (int c = 0; c < federation.cluster_count(); ++c) {
    const ::dmr::JobId lo = static_cast<::dmr::JobId>(c) * stride;
    for (const rms::Job* job : federation.manager(c).jobs()) {
      if (job->id <= lo || job->id > lo + stride) {
        std::ostringstream msg;
        msg << "member " << c << " (" << federation.cluster_name(c)
            << ") holds an id outside its range (" << lo << ", " << lo + stride
            << "]";
        violate("fed-id-range", job->id, now, msg.str());
        continue;  // cluster_of() on a foreign id blames the wrong member
      }
      const int routed = federation.cluster_of(job->id);
      if (routed != c) {
        std::ostringstream msg;
        msg << "id held by member " << c << " routes to member " << routed
            << " (stride inconsistency)";
        violate("fed-id-range", job->id, now, msg.str());
      }
    }
  }
}

void Auditor::check_manager(const rms::Manager& manager, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.conservation_audits;
  const rms::Cluster& cluster = manager.cluster();

  // Recompute everything from the node table, then compare against the
  // cluster's cached counters and every job's allocation list.
  std::vector<int> idle_per(static_cast<std::size_t>(cluster.partition_count()),
                            0);
  std::map<::dmr::JobId, std::vector<int>> owned;
  int idle = 0;
  int draining = 0;
  for (int id = 0; id < cluster.size(); ++id) {
    const rms::Node& node = cluster.node(id);
    if (node.draining) ++draining;
    if (node.owner == ::dmr::kInvalidJob) {
      ++idle;
      ++idle_per[static_cast<std::size_t>(node.partition)];
      if (node.draining) {
        violate("node-conservation", ::dmr::kInvalidJob, now,
                "idle node " + node.name + " is marked draining");
      }
    } else {
      owned[node.owner].push_back(id);
    }
  }

  if (idle != cluster.idle()) {
    std::ostringstream msg;
    msg << "idle counter " << cluster.idle() << " != " << idle
        << " idle nodes in the table";
    violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
  }
  if (draining != cluster.draining_count()) {
    std::ostringstream msg;
    msg << "draining counter " << cluster.draining_count() << " != " << draining
        << " draining nodes in the table";
    violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
  }
  for (int p = 0; p < cluster.partition_count(); ++p) {
    const int total = cluster.partition(p).nodes;
    const int idle_p = idle_per[static_cast<std::size_t>(p)];
    if (idle_p != cluster.idle_in(p) ||
        idle_p + cluster.allocated_in(p) != total) {
      std::ostringstream msg;
      msg << "partition " << cluster.partition(p).name << ": idle " << idle_p
          << " + allocated " << cluster.allocated_in(p) << " != total " << total
          << " (cached idle " << cluster.idle_in(p) << ")";
      violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
    }
  }

  // Each job's node list must match the owner table exactly; a node in
  // two allocations shows up as a list/owner mismatch on one of them.
  for (const auto& [id, nodes] : owned) {
    try {
      const rms::Job& job = manager.job(id);
      if (!job.running()) {
        std::ostringstream msg;
        msg << "owns " << nodes.size() << " node(s) while "
            << (job.pending() ? "pending" : "finished");
        violate("node-conservation", id, now, msg.str());
      }
      std::vector<int> declared = job.nodes;
      std::sort(declared.begin(), declared.end());
      if (declared != nodes) {
        std::ostringstream msg;
        msg << "job's node list has " << declared.size()
            << " node(s) but the owner table gives it " << nodes.size();
        violate("node-conservation", id, now, msg.str());
      }
    } catch (const std::exception&) {
      violate("node-conservation", id, now,
              "owner table names a job the manager does not know");
    }
  }
}

void Auditor::on_redist_report(const redist::Report& report,
                               std::size_t registered_bytes, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.redist_reports;
  const auto fail = [&](const std::string& message) {
    violate("byte-conservation", ::dmr::kInvalidJob, now, message);
  };
  if (report.bytes_total != registered_bytes) {
    std::ostringstream msg;
    msg << "report accounts for " << report.bytes_total << " bytes but "
        << registered_bytes << " are registered";
    fail(msg.str());
  }
  // A store-routed report may legitimately move every byte twice (write
  // plus read-back); point-to-point movement never exceeds the total.
  const std::size_t ceiling =
      report.via_checkpoint ? 2 * report.bytes_total : report.bytes_total;
  if (report.bytes_moved > ceiling) {
    std::ostringstream msg;
    msg << "moved " << report.bytes_moved << " bytes of a "
        << report.bytes_total << "-byte total"
        << (report.via_checkpoint ? " (checkpoint ceiling 2x)" : "");
    fail(msg.str());
  }
  if (report.bytes_moved > 0 && report.transfers <= 0) {
    std::ostringstream msg;
    msg << "moved " << report.bytes_moved << " bytes in " << report.transfers
        << " transfers";
    fail(msg.str());
  }
  if (report.transfers < 0) fail("negative transfer count");
  if (report.lanes < 1) fail("lanes < 1");
  if (!(report.seconds >= 0.0)) fail("negative or NaN duration");
}

Report Auditor::report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

void Auditor::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  report_ = Report{};
  phases_.clear();
  has_last_event_ = false;
  last_time_ = 0.0;
  last_lane_ = 0;
  last_seq_ = 0;
  last_watermark_ = 0;
}

}  // namespace dmr::chk
