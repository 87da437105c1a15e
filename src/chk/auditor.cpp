#include "chk/auditor.hpp"

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
      << ",\"violation_count\":" << violation_count()
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
  out << "chk: " << violation_count() << " violation(s) in " << total_checks()
      << " checks";
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
  // The DFA edges between submit and finish.  Every resize step ends
  // with a conservation sweep of the member it touched.
  struct Edge {
    K kind;
    Phase from;
    Phase to;
    const char* name;
    bool resize;
  };
  static constexpr Edge kEdges[] = {
      {K::kStarted, Phase::Queued, Phase::Running, "start", false},
      {K::kExpanded, Phase::Running, Phase::Running, "expand", true},
      {K::kShrinkBegun, Phase::Running, Phase::Reconfiguring, "shrink-begin",
       true},
      {K::kShrinkEnded, Phase::Reconfiguring, Phase::Running, "shrink-end",
       true},
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Edge& edge : kEdges) {
    if (edge.kind != event.kind) continue;
    lifecycle_edge(event.job, event.now, edge.from, edge.to, edge.name);
    if (edge.resize) check_manager(*event.manager, event.now);
    return;
  }
  switch (event.kind) {
    case K::kSubmitted:
      return job_submitted(event.job, event.now);
    case K::kFinished:
      return job_finished(event.job, event.now);
    case K::kPlaced:
      return check_placement(event.job, event.member, event.now);
    case K::kPass:
      return check_manager(*event.manager, event.now);
    case K::kDispatch:
      return check_dispatch(event);
    case K::kRedistributed:
      return check_redist(event);
    case K::kSample:
      // The service's steady heartbeat: audit the settled state.
      check_federation(*event.federation, event.now);
      for (int c = 0; c < event.federation->cluster_count(); ++c) {
        check_manager(event.federation->manager(c), event.now);
      }
      return;
    default:
      return;
  }
}

void Auditor::job_submitted(::dmr::JobId id, double now) {
  ++report_.lifecycle_edges;
  const auto [it, inserted] = phases_.emplace(id, Phase::Queued);
  if (!inserted) {
    violate("job-lifecycle", id, now,
            std::string("resubmitted while ") + phase_name(it->second));
    it->second = Phase::Queued;
  }
}

void Auditor::job_finished(::dmr::JobId id, double now) {
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

void Auditor::check_dispatch(const obs::Event& event) {
  ++report_.event_dispatches;
  const double time = event.now;
  const auto& [lane, seq, clock, watermark] = event.dispatch;
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
  last_watermark_ = watermark;
}

void Auditor::check_placement(::dmr::JobId id, int member, double now) {
  ++report_.placement_checks;
  const ::dmr::JobId stride = rms::kClusterIdStride;
  const ::dmr::JobId lo = static_cast<::dmr::JobId>(member) * stride;
  if (id <= lo || id > lo + stride) {
    std::ostringstream msg;
    msg << "placed id on member " << member << " outside its range (" << lo
        << ", " << lo + stride << "]";
    violate("fed-id-range", id, now, msg.str());
  }
}

void Auditor::check_federation(const fed::Federation& federation, double now) {
  ++report_.federation_audits;
  const ::dmr::JobId stride = rms::kClusterIdStride;
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
  ++report_.conservation_audits;
  const rms::Cluster& cluster = manager.cluster();
  const int size = cluster.size();
  if (listed_.size() < static_cast<std::size_t>(size)) {
    listed_.resize(static_cast<std::size_t>(size));
  }

  // Walk 1: every node a running job lists must be in range, given to it
  // by the owner table, and listed once.  Mark the ones that are.
  for (const rms::Job* job : manager.running_list()) {
    for (const int id : job->nodes) {
      const bool in_range = id >= 0 && id < size;
      const bool owned = in_range && cluster.node(id).owner == job->id;
      if (owned && listed_[static_cast<std::size_t>(id)] == 0) {
        listed_[static_cast<std::size_t>(id)] = 1;
        continue;
      }
      std::ostringstream msg;
      msg << "job's node list names ";
      if (!in_range) {
        msg << "node " << id << " outside the " << size << "-node cluster";
      } else if (owned) {
        msg << cluster.node(id).name << " twice";
      } else if (cluster.node(id).owner == ::dmr::kInvalidJob) {
        msg << cluster.node(id).name << ", which the owner table leaves idle";
      } else {
        msg << cluster.node(id).name << ", which the owner table gives to job "
            << cluster.node(id).owner;
      }
      violate("node-conservation", job->id, now, msg.str());
    }
  }

  // Walk 2: the node table.  Recount idle and draining nodes, blame the
  // owner of every owned node the first walk left unmarked, and clear
  // the marks for the next audit.
  idle_per_.assign(static_cast<std::size_t>(cluster.partition_count()), 0);
  const std::vector<std::uint8_t>& draining_flags = cluster.node_draining();
  const std::vector<int>& partition_of = cluster.node_partitions();
  int idle = 0;
  int draining = 0;
  for (int id = 0; id < size; ++id) {
    const rms::Node& node = cluster.node(id);
    const auto at = static_cast<std::size_t>(id);
    std::uint8_t& listed = listed_[at];
    if (draining_flags[at] != 0) ++draining;
    if (node.owner == ::dmr::kInvalidJob) {
      ++idle;
      ++idle_per_[static_cast<std::size_t>(partition_of[at])];
      if (draining_flags[at] != 0) {
        violate("node-conservation", ::dmr::kInvalidJob, now,
                "idle node " + node.name + " is marked draining");
      }
    } else if (listed == 0) {
      blame_unlisted(manager, id, now);
    }
    listed = 0;
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
    const int idle_p = idle_per_[static_cast<std::size_t>(p)];
    if (idle_p != cluster.idle_in(p) ||
        idle_p + cluster.allocated_in(p) != total) {
      std::ostringstream msg;
      msg << "partition " << cluster.partition(p).name << ": idle " << idle_p
          << " + allocated " << cluster.allocated_in(p) << " != total " << total
          << " (cached idle " << cluster.idle_in(p) << ")";
      violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
    }
  }
}

void Auditor::blame_unlisted(const rms::Manager& manager, int node,
                             double now) {
  const rms::Node& entry = manager.cluster().node(node);
  std::ostringstream msg;
  try {
    const rms::Job& job = manager.job(entry.owner);
    msg << "owns " << entry.name << " while "
        << (job.pending()   ? "pending"
            : job.running() ? "running, but its node list omits it"
                            : "finished");
  } catch (const std::exception&) {
    msg << "owner table gives " << entry.name
        << " to a job the manager does not know";
  }
  violate("node-conservation", entry.owner, now, msg.str());
}

void Auditor::check_redist(const obs::Event& event) {
  ++report_.redist_reports;
  const redist::Report& report = *event.report;
  const auto fail = [&](const std::string& message) {
    violate("byte-conservation", ::dmr::kInvalidJob, event.now, message);
  };
  if (report.bytes_total != event.bytes) {
    std::ostringstream msg;
    msg << "report accounts for " << report.bytes_total << " bytes but "
        << event.bytes << " are registered";
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

}  // namespace dmr::chk
