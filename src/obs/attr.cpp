#include "obs/attr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "fed/federation.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dmr::obs {

namespace {

constexpr double kEps = 1.0e-9;
/// One event's worth of timing slop for critical-path handoff checks.
constexpr double kHandoffTolerance = 1.0e-6;

/// Full-precision double, so the sidecar round-trips bit-exactly.
std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Add a job's slices to per-cause `totals`, in slice order.
void add_slices(const JobAttribution& job, double* totals) {
  for (const CauseSlice& slice : job.slices) {
    totals[static_cast<std::size_t>(slice.cause)] += slice.seconds;
  }
}

/// Every cause in alphabetical name order, for sorted-key emission.
constexpr BlockReason kAlphabetical[kBlockReasonCount] = {
    BlockReason::kDependency,      BlockReason::kDrainingWait,
    BlockReason::kEasyReservation, BlockReason::kInsufficientIdle,
    BlockReason::kPartitionPinned, BlockReason::kShrinkPending,
    BlockReason::kUnattributed,
};

}  // namespace

const char* to_string(BlockReason reason) {
  switch (reason) {
    case BlockReason::kUnattributed: return "unattributed";
    case BlockReason::kInsufficientIdle: return "insufficient-idle";
    case BlockReason::kEasyReservation: return "easy-reservation";
    case BlockReason::kPartitionPinned: return "partition-pinned";
    case BlockReason::kDrainingWait: return "draining-wait";
    case BlockReason::kShrinkPending: return "shrink-pending";
    case BlockReason::kDependency: return "dependency";
  }
  return "unattributed";
}

const char* block_reason_key(BlockReason reason) {
  switch (reason) {
    case BlockReason::kUnattributed: return "unattributed";
    case BlockReason::kInsufficientIdle: return "insufficient_idle";
    case BlockReason::kEasyReservation: return "easy_reservation";
    case BlockReason::kPartitionPinned: return "partition_pinned";
    case BlockReason::kDrainingWait: return "draining_wait";
    case BlockReason::kShrinkPending: return "shrink_pending";
    case BlockReason::kDependency: return "dependency";
  }
  return "unattributed";
}

BlockReason block_reason_from(const std::string& name) {
  for (int i = 0; i < kBlockReasonCount; ++i) {
    const auto reason = static_cast<BlockReason>(i);
    if (name == to_string(reason)) return reason;
  }
  return BlockReason::kUnattributed;
}

double JobAttribution::attributed_seconds() const {
  double total = 0.0;
  for (const CauseSlice& slice : slices) total += slice.seconds;
  return total;
}

std::vector<CauseSlice> ranked_causes(const JobAttribution& job) {
  // Aggregate by (cause, blocker); ordered keys keep ties deterministic.
  std::map<std::pair<int, JobId>, double> totals;
  for (const CauseSlice& slice : job.slices) {
    totals[{static_cast<int>(slice.cause), slice.blocker}] += slice.seconds;
  }
  std::vector<CauseSlice> ranked;
  ranked.reserve(totals.size());
  for (const auto& [key, seconds] : totals) {
    ranked.push_back(CauseSlice{static_cast<BlockReason>(key.first),
                                key.second, seconds});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const CauseSlice& a, const CauseSlice& b) {
                     return a.seconds > b.seconds;
                   });
  return ranked;
}

// --- WaitAttributor ---------------------------------------------------------

Interest WaitAttributor::interest() const {
  return kinds(EventKind::kSubmitted, EventKind::kPlaced, EventKind::kBlocked,
               EventKind::kStarted, EventKind::kFinished);
}

void WaitAttributor::on_event(const Event& event) {
  // A resizer never enters jobs_/open_, so only its submission needs the
  // test: every later report about it finds nothing to update.
  switch (event.kind) {
    case EventKind::kSubmitted: {
      const rms::Job& job = event.manager->job(event.job);
      if (!job.spec.internal_resizer) {
        on_job_submitted(event.job, job.spec.name, event.now);
      }
      return;
    }
    case EventKind::kPlaced: {
      // Placement provenance: which policy routed where, the queue depth
      // it saw there, and the members that could not hold the job at all.
      const fed::ClusterStatus& picked =
          (*event.statuses)[static_cast<std::size_t>(event.member)];
      std::string note = "policy=" +
                         event.federation->placement_policy().name() +
                         " -> " + picked.name +
                         " queue_depth=" + std::to_string(picked.pending_jobs);
      std::string rejected;
      for (const fed::ClusterStatus& status : *event.statuses) {
        if (event.new_size <= status.capacity) continue;
        if (!rejected.empty()) rejected += ",";
        rejected += status.name;
      }
      if (!rejected.empty()) note += " rejected=" + rejected;
      const auto record = jobs_.find(event.job);
      if (record == jobs_.end()) return;
      record->second.member = event.member;
      record->second.placement = std::move(note);
      return;
    }
    case EventKind::kBlocked:
      return on_job_blocked(event.job, event.now, event.cause, event.blocker);
    case EventKind::kStarted:
      return on_job_started(event.job, event.now);
    case EventKind::kFinished:
      return on_job_finished(event.job, event.now);
    default:
      return;
  }
}

void WaitAttributor::on_job_submitted(JobId id, const std::string& name,
                                      double now) {
  // A job at or below the settled prefix's end (a re-submitted id, or on
  // a federation a lower member's id arriving after the prefix crossed
  // into the next member's range) would change what the sums hold: drop
  // them, and the next cause_totals() starts again from the first job.
  if (settled_last_ && id <= *settled_last_) {
    settled_last_.reset();
    settled_totals_.fill(0.0);
  }
  JobAttribution& job = jobs_[id];
  job.id = id;
  job.name = name;
  job.submit = now;
  open_[id] = OpenSegment{BlockReason::kUnattributed, 0, now};
}

void WaitAttributor::close_segment(JobAttribution& job,
                                   const OpenSegment& open, double now) {
  const double seconds = now - open.since;
  if (!(seconds > 0.0)) return;
  if (!job.slices.empty() && job.slices.back().cause == open.cause &&
      job.slices.back().blocker == open.blocker) {
    job.slices.back().seconds += seconds;
    return;
  }
  job.slices.push_back(CauseSlice{open.cause, open.blocker, seconds});
}

void WaitAttributor::on_job_blocked(JobId id, double now, BlockReason cause,
                                    JobId blocker) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // unknown, or already started
  OpenSegment& open = it->second;
  if (open.cause == BlockReason::kUnattributed) {
    // First diagnosis: the cause held since the segment opened.
    open.cause = cause;
    open.blocker = blocker;
    return;
  }
  if (open.cause == cause && open.blocker == blocker) return;
  const auto job = jobs_.find(id);
  if (job != jobs_.end()) close_segment(job->second, open, now);
  open = OpenSegment{cause, blocker, now};
}

void WaitAttributor::on_job_started(JobId id, double now) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  const auto record = jobs_.find(id);
  if (record != jobs_.end()) {
    JobAttribution& job = record->second;
    job.start = now;
    // The final segment absorbs accumulated rounding so the slices tile
    // [submit, start] exactly: sum(seconds) == start - submit by
    // construction, the conservation property tests assert.
    OpenSegment final = it->second;
    const double wait = now - job.submit;
    const double correction = wait - job.attributed_seconds();
    if (std::abs(correction) > 0.0) {
      if (!job.slices.empty() && job.slices.back().cause == final.cause &&
          job.slices.back().blocker == final.blocker) {
        job.slices.back().seconds += correction;
      } else {
        job.slices.push_back(
            CauseSlice{final.cause, final.blocker, correction});
      }
    }
  }
  open_.erase(it);
}

void WaitAttributor::on_job_finished(JobId id, double now) {
  const auto record = jobs_.find(id);
  if (record == jobs_.end()) return;
  record->second.end = now;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  // Cancelled while pending: close the wait at the cancellation.
  close_segment(record->second, it->second, now);
  open_.erase(it);
}

std::vector<double> WaitAttributor::cause_totals(double now) const {
  auto it = settled_last_ ? jobs_.upper_bound(*settled_last_) : jobs_.begin();
  // Only an open segment still changes a job's slices, so every job
  // below the oldest open one is final: fold those into the kept sums.
  for (; it != jobs_.end(); ++it) {
    if (!open_.empty() && it->first >= open_.begin()->first) break;
    add_slices(it->second, settled_totals_.data());
    settled_last_ = it->first;
  }
  std::vector<double> totals(settled_totals_.begin(), settled_totals_.end());
  for (; it != jobs_.end(); ++it) add_slices(it->second, totals.data());
  if (now >= 0.0) {
    for (const auto& [id, open] : open_) {
      if (now > open.since) {
        totals[static_cast<std::size_t>(open.cause)] += now - open.since;
      }
    }
  }
  return totals;
}

double WaitAttributor::makespan() const {
  double makespan = 0.0;
  for (const auto& [id, job] : jobs_) {
    makespan = std::max(makespan, job.end);
  }
  return makespan;
}

std::string WaitAttributor::to_json() const {
  // Keys are emitted in sorted order at every level (the dmr_lint
  // unordered-json rule demands deterministic bytes from JSON writers;
  // jobs_ is an ordered map, causes iterate alphabetically).
  const std::vector<double> totals = cause_totals();
  std::ostringstream out;
  out << "{\"causes\":{";
  for (int i = 0; i < kBlockReasonCount; ++i) {
    const BlockReason reason = kAlphabetical[i];
    if (i > 0) out << ",";
    out << "\"" << to_string(reason)
        << "\":" << fmt(totals[static_cast<std::size_t>(reason)]);
  }
  out << "},\"dmr_attr\":1,\"jobs\":[";
  bool first = true;
  for (const auto& [id, job] : jobs_) {
    if (!first) out << ",";
    first = false;
    out << "{\"end\":" << fmt(job.end) << ",\"id\":" << id
        << ",\"member\":" << job.member << ",\"name\":\""
        << json_escape(job.name) << "\",\"placement\":\""
        << json_escape(job.placement) << "\",\"slices\":[";
    for (std::size_t s = 0; s < job.slices.size(); ++s) {
      const CauseSlice& slice = job.slices[s];
      if (s > 0) out << ",";
      out << "{\"blocker\":" << slice.blocker << ",\"cause\":\""
          << to_string(slice.cause) << "\",\"seconds\":" << fmt(slice.seconds)
          << "}";
    }
    out << "],\"start\":" << fmt(job.start) << ",\"submit\":"
        << fmt(job.submit) << "}";
  }
  out << "],\"makespan\":" << fmt(makespan()) << "}";
  return out.str();
}

void WaitAttributor::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WaitAttributor: cannot write " + path);
  }
  out << to_json() << "\n";
}

// --- sidecar analytics ------------------------------------------------------

const JobAttribution* AttributionProfile::find(JobId id) const {
  const auto it = std::lower_bound(
      jobs.begin(), jobs.end(), id,
      [](const JobAttribution& job, JobId key) { return job.id < key; });
  if (it == jobs.end() || it->id != id) return nullptr;
  return &*it;
}

double AttributionProfile::total_wait() const {
  double total = 0.0;
  for (const JobAttribution& job : jobs) total += job.wait_seconds();
  return total;
}

AttributionProfile parse_attribution(const std::string& json,
                                     std::string& error) {
  AttributionProfile profile;
  profile.cause_totals.assign(static_cast<std::size_t>(kBlockReasonCount),
                              0.0);
  JsonValue root;
  if (!parse_json(json, root, error)) {
    error = "JSON parse error: " + error;
    return profile;
  }
  if (root.kind != JsonValue::Kind::Object ||
      static_cast<int>(json_number(root.field("dmr_attr"))) != 1) {
    error = "not an attribution sidecar (missing \"dmr_attr\":1)";
    return profile;
  }
  const JsonValue* jobs = root.field("jobs");
  if (jobs == nullptr || jobs->kind != JsonValue::Kind::Array) {
    error = "missing jobs array";
    return profile;
  }
  for (const JsonValue& entry : jobs->items) {
    if (entry.kind != JsonValue::Kind::Object) {
      error = "job entry is not an object";
      return profile;
    }
    JobAttribution job;
    job.id = static_cast<JobId>(json_number(entry.field("id")));
    job.name = json_string(entry.field("name"));
    job.submit = json_number(entry.field("submit"));
    job.start = json_number(entry.field("start"), -1.0);
    job.end = json_number(entry.field("end"), -1.0);
    job.member = static_cast<int>(json_number(entry.field("member"), -1.0));
    job.placement = json_string(entry.field("placement"));
    if (const JsonValue* slices = entry.field("slices")) {
      for (const JsonValue& item : slices->items) {
        CauseSlice slice;
        slice.cause = block_reason_from(json_string(item.field("cause")));
        slice.blocker = static_cast<JobId>(json_number(item.field("blocker")));
        slice.seconds = json_number(item.field("seconds"));
        job.slices.push_back(slice);
        profile.cause_totals[static_cast<std::size_t>(slice.cause)] +=
            slice.seconds;
      }
    }
    profile.makespan = std::max(profile.makespan, job.end);
    profile.jobs.push_back(std::move(job));
  }
  std::sort(profile.jobs.begin(), profile.jobs.end(),
            [](const JobAttribution& a, const JobAttribution& b) {
              return a.id < b.id;
            });
  error.clear();
  return profile;
}

AttributionProfile load_attribution_file(const std::string& path,
                                         std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    AttributionProfile profile;
    profile.cause_totals.assign(static_cast<std::size_t>(kBlockReasonCount),
                                0.0);
    return profile;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_attribution(text.str(), error);
}

AttributionProfile snapshot_attribution(const WaitAttributor& attr) {
  AttributionProfile profile;
  profile.cause_totals = attr.cause_totals();
  profile.makespan = attr.makespan();
  profile.jobs.reserve(attr.jobs().size());
  for (const auto& [id, job] : attr.jobs()) profile.jobs.push_back(job);
  return profile;
}

std::vector<const JobAttribution*> top_waits(const AttributionProfile& profile,
                                             std::size_t n) {
  std::vector<const JobAttribution*> jobs;
  jobs.reserve(profile.jobs.size());
  for (const JobAttribution& job : profile.jobs) jobs.push_back(&job);
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobAttribution* a, const JobAttribution* b) {
                     return a->wait_seconds() > b->wait_seconds();
                   });
  if (jobs.size() > n) jobs.resize(n);
  return jobs;
}

CriticalPath critical_path(const AttributionProfile& profile) {
  CriticalPath path;
  const JobAttribution* tail = nullptr;
  for (const JobAttribution& job : profile.jobs) {
    if (job.end >= 0.0 && (tail == nullptr || job.end > tail->end)) {
      tail = &job;
    }
  }
  if (tail == nullptr) return path;
  path.makespan = tail->end;

  std::vector<JobId> chain{tail->id};
  std::vector<CriticalPathEdge> edges;
  std::set<JobId> visited{tail->id};
  const JobAttribution* cur = tail;
  for (;;) {
    if (cur->wait_seconds() <= kEps) break;
    // The cause in force just before the start: the last slice with any
    // weight (slices are chronological).
    const CauseSlice* last = nullptr;
    for (const CauseSlice& slice : cur->slices) {
      if (std::abs(slice.seconds) > kEps) last = &slice;
    }
    if (last == nullptr || last->blocker == 0) break;
    const JobAttribution* blocker = profile.find(last->blocker);
    if (blocker == nullptr || visited.count(blocker->id) != 0) break;
    CriticalPathEdge edge;
    edge.blocker = blocker->id;
    edge.job = cur->id;
    edge.cause = last->cause;
    for (const CauseSlice& slice : cur->slices) {
      if (slice.blocker == blocker->id) edge.wait_seconds += slice.seconds;
    }
    edge.slack = blocker->end >= 0.0 ? cur->start - blocker->end : 0.0;
    // Tight: the start falls inside the blocker's residency (completion
    // releases at end, a shrink/drain releases mid-run), so the handoff
    // is a real release event and the chain bounds the makespan.
    edge.tight = cur->start >= blocker->start - kHandoffTolerance &&
                 (blocker->end < 0.0 ||
                  cur->start <= blocker->end + kHandoffTolerance);
    edges.push_back(edge);
    chain.push_back(blocker->id);
    visited.insert(blocker->id);
    cur = blocker;
  }
  std::reverse(chain.begin(), chain.end());
  std::reverse(edges.begin(), edges.end());
  path.chain = std::move(chain);
  path.edges = std::move(edges);
  const JobAttribution* root = profile.find(path.chain.front());
  path.root_submit = root != nullptr ? root->submit : 0.0;
  return path;
}

AttributionDelta compare_profiles(const AttributionProfile& a,
                                  const AttributionProfile& b) {
  AttributionDelta delta;
  delta.makespan_a = a.makespan;
  delta.makespan_b = b.makespan;
  delta.total_wait_a = a.total_wait();
  delta.total_wait_b = b.total_wait();
  delta.jobs_a = static_cast<int>(a.jobs.size());
  delta.jobs_b = static_cast<int>(b.jobs.size());
  delta.cause_a = a.cause_totals;
  delta.cause_b = b.cause_totals;
  for (const JobAttribution& job : a.jobs) {
    const JobAttribution* other = b.find(job.id);
    if (other == nullptr) continue;
    const double wait_a = job.wait_seconds();
    const double wait_b = other->wait_seconds();
    if (std::abs(wait_b - wait_a) <= kEps) continue;
    delta.moved_jobs.push_back(
        AttributionDelta::JobDelta{job.id, job.name, wait_a, wait_b});
  }
  std::stable_sort(delta.moved_jobs.begin(), delta.moved_jobs.end(),
                   [](const AttributionDelta::JobDelta& x,
                      const AttributionDelta::JobDelta& y) {
                     return x.wait_b - x.wait_a > y.wait_b - y.wait_a;
                   });
  return delta;
}

}  // namespace dmr::obs
