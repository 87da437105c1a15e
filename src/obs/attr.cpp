#include "obs/attr.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fed/federation.hpp"
#include "obs/json.hpp"

namespace dmr::obs {

namespace {

constexpr double kEps = 1.0e-9;
/// One event's worth of timing slop for critical-path handoff checks.
constexpr double kHandoffTolerance = 1.0e-6;

/// Add a job's slices to per-cause `totals`, in slice order.
void add_slices(const JobAttribution& job, double* totals) {
  for (const CauseSlice& slice : job.slices) {
    totals[static_cast<std::size_t>(slice.cause)] += slice.seconds;
  }
}

/// Append a slice, merged into the last one when cause and blocker repeat.
void add_slice(JobAttribution& job, BlockReason cause, JobId blocker,
               double seconds) {
  if (!job.slices.empty() && job.slices.back().cause == cause &&
      job.slices.back().blocker == blocker) {
    job.slices.back().seconds += seconds;
  } else {
    job.slices.push_back(CauseSlice{cause, blocker, seconds});
  }
}

/// Visit the rows from `at` on, in id order, until `visit` returns false;
/// return that row's position, or else the end of the last member.
template <typename Members, typename Position, typename Visit>
Position rows_from(const Members& members, Position at, Visit visit) {
  for (; at.member < members.size(); ++at.member, at.index = 0) {
    for (; at.index < members[at.member].size(); ++at.index) {
      if (!visit(members[at.member][at.index])) return at;
    }
    if (at.member + 1 == members.size()) break;
  }
  return at;
}

/// Each cause's human-facing name and JSON column key, in enum order.
constexpr struct {
  const char* name;
  const char* key;
} kNames[kBlockReasonCount] = {
    {"unattributed", "unattributed"},
    {"insufficient-idle", "insufficient_idle"},
    {"easy-reservation", "easy_reservation"},
    {"partition-pinned", "partition_pinned"},
    {"draining-wait", "draining_wait"},
    {"shrink-pending", "shrink_pending"},
};

/// Every cause in alphabetical name order, for sorted-key emission.
constexpr BlockReason kAlphabetical[kBlockReasonCount] = {
    BlockReason::kDrainingWait,     BlockReason::kEasyReservation,
    BlockReason::kInsufficientIdle, BlockReason::kPartitionPinned,
    BlockReason::kShrinkPending,    BlockReason::kUnattributed,
};

}  // namespace

const char* to_string(BlockReason reason) {
  const auto at = static_cast<std::size_t>(reason);
  return at < std::size(kNames) ? kNames[at].name : "unattributed";
}

const char* block_reason_key(BlockReason reason) {
  const auto at = static_cast<std::size_t>(reason);
  return at < std::size(kNames) ? kNames[at].key : "unattributed";
}

std::optional<BlockReason> block_reason_from(const std::string& name) {
  for (std::size_t at = 0; at < std::size(kNames); ++at) {
    if (name == kNames[at].name) return static_cast<BlockReason>(at);
  }
  return std::nullopt;
}

double JobAttribution::attributed_seconds() const {
  double total = 0.0;
  for (const CauseSlice& slice : slices) total += slice.seconds;
  return total;
}

std::vector<CauseSlice> ranked_causes(const JobAttribution& job) {
  // Aggregate by (cause, blocker); equal totals rank by that key.
  const auto key = [](const CauseSlice& slice) {
    return std::pair(static_cast<int>(slice.cause), slice.blocker);
  };
  std::vector<CauseSlice> ranked;
  for (const CauseSlice& s : job.slices) {
    auto it = std::find_if(ranked.begin(), ranked.end(), [&](const auto& r) {
      return key(r) == key(s);
    });
    if (it == ranked.end()) it = ranked.insert(it, {s.cause, s.blocker});
    it->seconds += s.seconds;
  }
  std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
    return a.seconds != b.seconds ? a.seconds > b.seconds : key(a) < key(b);
  });
  return ranked;
}

// --- WaitAttributor ---------------------------------------------------------

Interest WaitAttributor::interest() const {
  return kinds(EventKind::kSubmitted, EventKind::kPlaced, EventKind::kBlocked,
               EventKind::kStarted, EventKind::kFinished);
}

void WaitAttributor::on_event(const Event& event) {
  switch (event.kind) {
    case EventKind::kSubmitted: return submitted(event);
    case EventKind::kPlaced: return placed(event);
    case EventKind::kBlocked: return blocked(event);
    case EventKind::kStarted: return started(event);
    case EventKind::kFinished: return finished(event);
    default: return;
  }
}

WaitAttributor::Position WaitAttributor::position_of(JobId id) {
  return Position{static_cast<std::size_t>((id - 1) / rms::kClusterIdStride),
                  static_cast<std::size_t>((id - 1) % rms::kClusterIdStride)};
}

WaitAttributor::Row* WaitAttributor::find(JobId id) {
  if (id < 1) return nullptr;  // no member issues it (and id - 1 is safe)
  const Position at = position_of(id);
  if (at.member >= members_.size()) return nullptr;
  std::deque<Row>& rows = members_[at.member];
  Row* row = at.index < rows.size() ? &rows[at.index] : nullptr;
  return row != nullptr && row->job.id == id ? row : nullptr;
}

void WaitAttributor::close_segment(Row& row, double now) {
  const OpenSegment& open = *row.open;
  if (now > open.since) {
    add_slice(row.job, open.cause, open.blocker, now - open.since);
  }
}

void WaitAttributor::submitted(const Event& event) {
  // A resizer gets no row, so every later report about it finds nothing.
  const rms::Job& job = event.manager->job(event.job);
  if (job.resizer) return;
  const Position at = position_of(event.job);
  // A member issues its ids in order, so only a member below the
  // settled prefix's end can place a job inside the prefix: drop the
  // sums, and the next cause_totals() starts from the first job.
  if (at.member < settled_end_.member) {
    settled_end_ = Position{};
    settled_totals_.fill(0.0);
  }
  if (at.member >= members_.size()) members_.resize(at.member + 1);
  std::deque<Row>& rows = members_[at.member];
  if (at.index >= rows.size()) rows.resize(at.index + 1);
  Row& row = rows[at.index];
  row.job.id = event.job;
  row.job.name = job.spec.name;
  row.job.submit = event.now;
  row.open = OpenSegment{BlockReason::kUnattributed, 0, event.now};
}

void WaitAttributor::placed(const Event& event) {
  Row* row = find(event.job);
  if (row == nullptr) return;
  // Placement provenance: which policy routed where, the queue depth it
  // saw there, and the members that could not hold the job at all.
  const fed::ClusterStatus& picked =
      (*event.statuses)[static_cast<std::size_t>(event.member)];
  std::string note = "policy=" + event.federation->placement_policy().name() +
                     " -> " + picked.name +
                     " queue_depth=" + std::to_string(picked.pending_jobs);
  const char* separator = " rejected=";
  for (const fed::ClusterStatus& status : *event.statuses) {
    if (event.new_size <= status.capacity) continue;
    note += separator + status.name;
    separator = ",";
  }
  row->job.member = event.member;
  row->job.placement = std::move(note);
}

void WaitAttributor::blocked(const Event& event) {
  Row* row = find(event.job);
  if (row == nullptr || !row->open) return;  // unknown, or already started
  OpenSegment& open = *row->open;
  if (open.cause == BlockReason::kUnattributed) {
    // First diagnosis: the cause held since the segment opened.
    open.cause = event.cause;
    open.blocker = event.blocker;
  } else if (open.cause != event.cause || open.blocker != event.blocker) {
    close_segment(*row, event.now);
    open = OpenSegment{event.cause, event.blocker, event.now};
  }
}

void WaitAttributor::started(const Event& event) {
  Row* row = find(event.job);
  if (row == nullptr || !row->open) return;
  JobAttribution& job = row->job;
  job.start = event.now;
  // The final segment absorbs accumulated rounding, so the slices sum
  // to start - submit exactly: the conservation the tests assert.
  const double correction =
      (event.now - job.submit) - job.attributed_seconds();
  if (std::abs(correction) > 0.0) {
    add_slice(job, row->open->cause, row->open->blocker, correction);
  }
  row->open.reset();
}

void WaitAttributor::finished(const Event& event) {
  Row* row = find(event.job);
  if (row == nullptr) return;
  row->job.end = event.now;
  if (!row->open) return;
  close_segment(*row, event.now);  // cancelled while pending
  row->open.reset();
}

std::vector<double> WaitAttributor::cause_totals(double now) const {
  // Only an open segment still changes a job's slices, so every row
  // before the first waiting one is final: fold those into the kept
  // sums.  The cursor stays in the last member, where new ids land.
  settled_end_ = rows_from(members_, settled_end_, [&](const Row& row) {
    if (!row.open) add_slices(row.job, settled_totals_.data());
    return !row.open;
  });
  std::vector<double> totals(settled_totals_.begin(), settled_totals_.end());
  rows_from(members_, settled_end_, [&](const Row& row) {
    add_slices(row.job, totals.data());
    return true;
  });
  if (now < 0.0) return totals;
  rows_from(members_, settled_end_, [&](const Row& row) {
    const std::optional<OpenSegment>& open = row.open;
    if (open && now > open->since) {
      totals[static_cast<std::size_t>(open->cause)] += now - open->since;
    }
    return true;
  });
  return totals;
}

AttributionProfile WaitAttributor::profile() const {
  AttributionProfile profile;
  profile.cause_totals = cause_totals();
  for (const std::deque<Row>& rows : members_) {
    for (const Row& row : rows) {
      if (row.job.id == 0) continue;
      profile.makespan = std::max(profile.makespan, row.job.end);
      profile.jobs.push_back(row.job);
    }
  }
  return profile;
}

std::string WaitAttributor::to_json() const {
  // Sorted keys at every level (dmr_lint's unordered-json rule wants
  // deterministic bytes), and 17 significant digits per double, so the
  // sidecar round-trips bit-exactly.
  const AttributionProfile all = profile();
  std::ostringstream out;
  out.precision(17);
  out << "{\"causes\":{";
  for (int i = 0; i < kBlockReasonCount; ++i) {
    const BlockReason reason = kAlphabetical[i];
    out << (i > 0 ? ",\"" : "\"") << to_string(reason)
        << "\":" << all.cause_totals[static_cast<std::size_t>(reason)];
  }
  out << "},\"dmr_attr\":1,\"jobs\":[";
  for (std::size_t j = 0; j < all.jobs.size(); ++j) {
    const JobAttribution& job = all.jobs[j];
    out << (j > 0 ? ",{" : "{") << "\"end\":" << job.end << ",\"id\":"
        << job.id << ",\"member\":" << job.member << ",\"name\":\""
        << json_escape(job.name) << "\",\"placement\":\""
        << json_escape(job.placement) << "\",\"slices\":[";
    for (std::size_t s = 0; s < job.slices.size(); ++s) {
      const CauseSlice& slice = job.slices[s];
      out << (s > 0 ? ",{" : "{") << "\"blocker\":" << slice.blocker
          << ",\"cause\":\"" << to_string(slice.cause)
          << "\",\"seconds\":" << slice.seconds << "}";
    }
    out << "],\"start\":" << job.start << ",\"submit\":" << job.submit << "}";
  }
  out << "],\"makespan\":" << all.makespan << "}";
  return out.str();
}

void WaitAttributor::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("WaitAttributor: cannot write " + path);
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
  JsonValue root;
  if (!parse_json(json, root, error)) {
    error = "JSON parse error: " + error;
    return profile;
  }
  // Only an object has fields, so any other document fails here too.
  if (!json_integer(root.field("dmr_attr"), 1, 1)) {
    error = "not an attribution sidecar (missing \"dmr_attr\":1)";
    return profile;
  }
  const JsonValue* jobs = root.field("jobs");
  if (jobs == nullptr || jobs->kind != JsonValue::Kind::Array) {
    error = "missing jobs array";
    return profile;
  }
  // A rejection names the field and where it sits, as validate_trace's do.
  const auto where = [](std::size_t j, const std::string& slice = "") {
    return " (job " + std::to_string(j) + slice + ")";
  };
  for (std::size_t j = 0; j < jobs->items.size(); ++j) {
    // An entry that is not an object has no fields, so no id either.
    const JsonValue& entry = jobs->items[j];
    const auto id = json_integer(entry.field("id"), 1, kJsonExactInteger);
    const auto member = json_integer(entry.field("member"), -1,
                                     std::numeric_limits<int>::max(), -1);
    if (!id || !member) {
      error = (id ? "malformed member" : "missing or malformed id") + where(j);
      return profile;
    }
    JobAttribution job;
    job.id = *id;
    job.name = json_string(entry.field("name"));
    job.submit = json_number(entry.field("submit"));
    job.start = json_number(entry.field("start"), -1.0);
    job.end = json_number(entry.field("end"), -1.0);
    job.member = static_cast<int>(*member);
    job.placement = json_string(entry.field("placement"));
    if (const JsonValue* slices = entry.field("slices")) {
      for (std::size_t s = 0; s < slices->items.size(); ++s) {
        const JsonValue& item = slices->items[s];
        const std::string name = json_string(item.field("cause"));
        const auto cause = block_reason_from(name);
        const auto blocker =
            json_integer(item.field("blocker"), 0, kJsonExactInteger, 0);
        if (!cause || !blocker) {
          error = (cause ? std::string("malformed blocker")
                         : "unknown cause '" + name + "'") +
                  where(j, ", slice " + std::to_string(s));
          return profile;
        }
        const CauseSlice slice{*cause, *blocker,
                               json_number(item.field("seconds"))};
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
    return {};
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_attribution(text.str(), error);
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

  path.chain.push_back(tail->id);
  // One flag per profile job, by its position in the sorted list.
  std::vector<bool> visited(profile.jobs.size());
  visited[static_cast<std::size_t>(tail - profile.jobs.data())] = true;
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
    if (blocker == nullptr) break;
    const auto slot = static_cast<std::size_t>(blocker - profile.jobs.data());
    if (visited[slot]) break;
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
    path.edges.push_back(edge);
    path.chain.push_back(blocker->id);
    visited[slot] = true;
    cur = blocker;
  }
  std::reverse(path.chain.begin(), path.chain.end());
  std::reverse(path.edges.begin(), path.edges.end());
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
