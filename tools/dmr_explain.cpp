// dmr_explain — answer "why did this job wait?" from recorded runs.
//
// Ingests the compact attribution sidecar (`sweep --attr-json`,
// obs::WaitAttributor::write_file) and optionally the matching Chrome
// trace, and turns the per-job wait decompositions into answers:
//
//   dmr_explain run.attr.json                      summary + cause totals
//   dmr_explain run.attr.json --job 17             ranked causes for job 17,
//                                                  naming the blocking job
//   dmr_explain run.attr.json --top-waits 10       longest waits, dominant
//                                                  cause each
//   dmr_explain run.attr.json --critical-path      longest finish-time chain
//                                                  bounding the makespan,
//                                                  with per-edge cause
//   dmr_explain --compare a.attr.json b.attr.json  regression diff
//   dmr_explain run.attr.json --trace run.json     cross-check the sidecar
//                                                  against the trace file
//
// Exit status: 0 on success, 1 on unreadable/invalid inputs, 2 on usage
// errors.  All analytics live in src/obs/attr.cpp (obs::top_waits,
// obs::critical_path, obs::compare_profiles) so tests cover them without
// shelling out.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dmr/observe.hpp"
#include "dmr/util.hpp"

namespace {

using dmr::obs::AttributionProfile;
using dmr::obs::BlockReason;
using dmr::obs::CauseSlice;
using dmr::obs::JobAttribution;

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s ATTR.json [--trace TRACE.json] [--job ID] [--top-waits N]\n"
      "       %*s [--critical-path]\n"
      "       %s --compare A.attr.json B.attr.json\n"
      "\n"
      "  ATTR.json        attribution sidecar (sweep --attr-json FILE)\n"
      "  --trace FILE     also validate the matching Chrome trace and\n"
      "                   cross-check its event count against the sidecar\n"
      "  --job ID         ranked wait-cause breakdown for one job,\n"
      "                   naming the blocking job/reservation per cause\n"
      "  --top-waits N    the N longest-waiting jobs with dominant cause\n"
      "  --critical-path  longest finish-time dependency chain bounding\n"
      "                   the makespan, one cause-labelled edge per hop\n"
      "  --compare A B    regression diff of two sidecars (makespan,\n"
      "                   per-cause totals, jobs whose wait moved)\n",
      argv0, static_cast<int>(std::strlen(argv0)), "", argv0);
}

const char* job_name(const AttributionProfile& profile, dmr::JobId id) {
  const JobAttribution* job = profile.find(id);
  return job != nullptr && !job->name.empty() ? job->name.c_str() : "?";
}

/// "easy-reservation behind job 12 (bt_B)" — one ranked-cause line.
void print_cause(const AttributionProfile& profile, const CauseSlice& slice,
                 double wait) {
  const double share = wait > 0.0 ? 100.0 * slice.seconds / wait : 0.0;
  std::printf("  %10.2f s  %5.1f %%  %s", slice.seconds, share,
              dmr::obs::to_string(slice.cause));
  if (slice.blocker != 0) {
    std::printf("  (blocking job %lld: %s)",
                static_cast<long long>(slice.blocker),
                job_name(profile, slice.blocker));
  }
  std::printf("\n");
}

int explain_job(const AttributionProfile& profile, dmr::JobId id) {
  const JobAttribution* job = profile.find(id);
  if (job == nullptr) {
    std::fprintf(stderr, "dmr_explain: job %lld not in sidecar (%zu jobs)\n",
                 static_cast<long long>(id), profile.jobs.size());
    return 1;
  }
  std::printf("job %lld (%s)\n", static_cast<long long>(job->id),
              job->name.c_str());
  if (job->member >= 0) std::printf("  member   %d\n", job->member);
  if (!job->placement.empty()) {
    std::printf("  placed   %s\n", job->placement.c_str());
  }
  std::printf("  submit   %.2f s\n", job->submit);
  if (job->start >= 0.0) {
    std::printf("  start    %.2f s  (waited %.2f s)\n", job->start,
                job->wait_seconds());
  } else {
    std::printf("  start    never (still pending at end of run)\n");
  }
  if (job->end >= 0.0) std::printf("  end      %.2f s\n", job->end);
  const std::vector<CauseSlice> ranked = dmr::obs::ranked_causes(*job);
  if (ranked.empty()) {
    std::printf("  started immediately: nothing blocked it\n");
    return 0;
  }
  std::printf("  wait decomposition (sums to the full wait):\n");
  for (const CauseSlice& slice : ranked) {
    print_cause(profile, slice, job->wait_seconds());
  }
  return 0;
}

int list_top_waits(const AttributionProfile& profile, std::size_t n) {
  const std::vector<const JobAttribution*> worst =
      dmr::obs::top_waits(profile, n);
  if (worst.empty()) {
    std::printf("no started jobs in sidecar\n");
    return 0;
  }
  std::printf("%-6s %-16s %10s  dominant cause\n", "job", "name", "wait");
  for (const JobAttribution* job : worst) {
    const std::vector<CauseSlice> ranked = dmr::obs::ranked_causes(*job);
    std::printf("%-6lld %-16s %8.2f s  ", static_cast<long long>(job->id),
                job->name.c_str(), job->wait_seconds());
    if (ranked.empty()) {
      std::printf("-\n");
      continue;
    }
    std::printf("%s (%.2f s)", dmr::obs::to_string(ranked.front().cause),
                ranked.front().seconds);
    if (ranked.front().blocker != 0) {
      std::printf(" behind job %lld",
                  static_cast<long long>(ranked.front().blocker));
    }
    std::printf("\n");
  }
  return 0;
}

int show_critical_path(const AttributionProfile& profile) {
  const dmr::obs::CriticalPath path = dmr::obs::critical_path(profile);
  if (path.chain.empty()) {
    std::printf("no finished jobs: no critical path\n");
    return 0;
  }
  std::printf("critical path: %zu job(s), span %.2f s -> %.2f s "
              "(makespan %.2f s)\n",
              path.chain.size(), path.root_submit, path.makespan,
              profile.makespan);
  const JobAttribution* root = profile.find(path.chain.front());
  std::printf("  root  job %lld (%s), submitted %.2f s, waited %.2f s\n",
              static_cast<long long>(path.chain.front()),
              job_name(profile, path.chain.front()),
              root != nullptr ? root->submit : 0.0,
              root != nullptr ? root->wait_seconds() : 0.0);
  for (const dmr::obs::CriticalPathEdge& edge : path.edges) {
    std::printf("  %s job %lld (%s) waited %.2f s on job %lld (%s): %s"
                " [slack %+.2f s]\n",
                edge.tight ? "->" : "~>", static_cast<long long>(edge.job),
                job_name(profile, edge.job), edge.wait_seconds,
                static_cast<long long>(edge.blocker),
                job_name(profile, edge.blocker),
                dmr::obs::to_string(edge.cause), edge.slack);
  }
  std::printf("  ('->' edges are tight handoffs: the waiter started within "
              "its blocker's residency)\n");
  return 0;
}

int compare(const std::string& file_a, const std::string& file_b) {
  std::string error;
  const AttributionProfile a = dmr::obs::load_attribution_file(file_a, error);
  if (!error.empty()) {
    std::fprintf(stderr, "dmr_explain: %s: %s\n", file_a.c_str(),
                 error.c_str());
    return 1;
  }
  const AttributionProfile b = dmr::obs::load_attribution_file(file_b, error);
  if (!error.empty()) {
    std::fprintf(stderr, "dmr_explain: %s: %s\n", file_b.c_str(),
                 error.c_str());
    return 1;
  }
  const dmr::obs::AttributionDelta delta = dmr::obs::compare_profiles(a, b);
  std::printf("A: %s (%d jobs)\nB: %s (%d jobs)\n", file_a.c_str(),
              delta.jobs_a, file_b.c_str(), delta.jobs_b);
  std::printf("makespan    %10.2f -> %10.2f  (%+.2f s)\n", delta.makespan_a,
              delta.makespan_b, delta.makespan_b - delta.makespan_a);
  std::printf("total wait  %10.2f -> %10.2f  (%+.2f s)\n", delta.total_wait_a,
              delta.total_wait_b, delta.total_wait_b - delta.total_wait_a);
  std::printf("per-cause wait seconds:\n");
  for (int r = 0; r < dmr::obs::kBlockReasonCount; ++r) {
    const double va = delta.cause_a[static_cast<std::size_t>(r)];
    const double vb = delta.cause_b[static_cast<std::size_t>(r)];
    if (va == 0.0 && vb == 0.0) continue;
    std::printf("  %-18s %10.2f -> %10.2f  (%+.2f s)\n",
                dmr::obs::to_string(static_cast<BlockReason>(r)), va, vb,
                vb - va);
  }
  if (delta.moved_jobs.empty()) {
    std::printf("no job's wait moved\n");
    return 0;
  }
  std::printf("jobs whose wait moved (worst regression first):\n");
  std::size_t shown = 0;
  for (const auto& moved : delta.moved_jobs) {
    if (shown++ >= 20) {
      std::printf("  ... %zu more\n", delta.moved_jobs.size() - 20);
      break;
    }
    std::printf("  job %-6lld %-16s %8.2f -> %8.2f  (%+.2f s)\n",
                static_cast<long long>(moved.id), moved.name.c_str(),
                moved.wait_a, moved.wait_b, moved.wait_b - moved.wait_a);
  }
  return 0;
}

int cross_check_trace(const AttributionProfile& profile,
                      const std::string& trace_file) {
  const dmr::obs::TraceValidation result =
      dmr::obs::validate_trace_file(trace_file);
  std::printf("trace %s: %s\n", trace_file.c_str(),
              result.describe().c_str());
  for (const std::string& error : result.errors) {
    std::printf("  error: %s\n", error.c_str());
  }
  if (!result.ok) return 1;
  // The trace carries at least one span per started job (schedule/run
  // spans); a sidecar naming more started jobs than the trace has spans
  // means the two files are from different runs.
  std::size_t started = 0;
  for (const JobAttribution& job : profile.jobs) {
    if (job.start >= 0.0) ++started;
  }
  if (started > result.spans) {
    std::printf("  error: sidecar has %zu started jobs but the trace has "
                "only %zu spans; files are from different runs\n",
                started, result.spans);
    return 1;
  }
  return 0;
}

int summarize(const AttributionProfile& profile, const std::string& file) {
  std::printf("%s: %zu job(s), makespan %.2f s, total wait %.2f s\n",
              file.c_str(), profile.jobs.size(), profile.makespan,
              profile.total_wait());
  std::printf("wait seconds by cause:\n");
  bool any = false;
  for (int r = 0; r < dmr::obs::kBlockReasonCount; ++r) {
    const double seconds = profile.cause_totals[static_cast<std::size_t>(r)];
    if (seconds == 0.0) continue;
    any = true;
    std::printf("  %-18s %10.2f s\n",
                dmr::obs::to_string(static_cast<BlockReason>(r)), seconds);
  }
  if (!any) std::printf("  (none: every job started immediately)\n");
  std::printf("try: --job ID, --top-waits N, --critical-path\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string attr_file;
  std::string trace_file;
  std::string compare_a, compare_b;
  long long job_id = -1;  // -1: no --job
  int top_n = 0;          // 0: no --top-waits
  bool want_critical_path = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--job") == 0 && i + 1 < argc) {
      job_id = static_cast<long long>(dmr::util::parse_u64(
          argv[++i], "--job", std::numeric_limits<long long>::max()));
    } else if (std::strcmp(argv[i], "--top-waits") == 0 && i + 1 < argc) {
      top_n = dmr::util::parse_count(argv[++i], "--top-waits");
    } else if (std::strcmp(argv[i], "--critical-path") == 0) {
      want_critical_path = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (std::strcmp(argv[i], "--compare") == 0 && i + 2 < argc) {
      compare_a = argv[++i];
      compare_b = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      print_usage(argv[0]);
      return 2;
    } else if (attr_file.empty()) {
      attr_file = argv[i];
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }

  if (!compare_a.empty()) return compare(compare_a, compare_b);
  if (attr_file.empty()) {
    print_usage(argv[0]);
    return 2;
  }
  std::string error;
  const AttributionProfile profile =
      dmr::obs::load_attribution_file(attr_file, error);
  if (!error.empty()) {
    std::fprintf(stderr, "dmr_explain: %s: %s\n", attr_file.c_str(),
                 error.c_str());
    return 1;
  }

  int status = 0;
  if (!trace_file.empty()) {
    status = cross_check_trace(profile, trace_file);
    if (status != 0) return status;
  }
  bool acted = !trace_file.empty();
  if (job_id >= 0) {
    status = explain_job(profile, job_id);
    if (status != 0) return status;
    acted = true;
  }
  if (top_n > 0) {
    status = list_top_waits(profile, static_cast<std::size_t>(top_n));
    if (status != 0) return status;
    acted = true;
  }
  if (want_critical_path) {
    status = show_critical_path(profile);
    if (status != 0) return status;
    acted = true;
  }
  if (!acted) return summarize(profile, attr_file);
  return 0;
}
