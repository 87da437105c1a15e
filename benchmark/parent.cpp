#include "parent.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "child.hpp"
#include "workloads.hpp"

namespace dmrbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"jobs_per_s", "jobs/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, reported on every workload; one a workload
/// does not exercise reads 0 (README.md lists which apply where).
constexpr MetricSpec kPerLayer[] = {
    {"wl.generate_s", "s"},
    {"wl.swf_text_s", "s"},
    {"wl.swf_parse_s", "s"},
    {"wl.shape_s", "s"},
    {"wl.parse_records_per_s", "records/s"},
    {"drv.plan_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_job", "count"},
    {"sim.events_per_s", "events/s"},
    {"sim.queue_peak", "count"},
    {"sim.dispatch_ns", "ns"},
    {"drv.step_events", "count"},
    {"drv.step_ns", "ns"},
    {"drv.step_share", "ratio"},
    {"rms.schedule_requests", "count"},
    {"rms.schedule_passes", "count"},
    {"rms.pass_yield", "ratio"},
    {"rms.sched_events", "count"},
    {"rms.sched_event_ns", "ns"},
    {"rms.sched_share", "ratio"},
    {"rms.checks", "count"},
    {"rms.resizes", "count"},
    {"rms.action_yield", "ratio"},
    {"rms.aborted_expands", "count"},
    {"rms.check_events", "count"},
    {"rms.check_event_ns", "ns"},
    {"rms.check_share", "ratio"},
    {"fed.place_calls", "count"},
    {"fed.place_ns", "ns"},
    {"fed.place_share", "ratio"},
    {"svc.period_p50_ms", "ms"},
    {"svc.period_p95_ms", "ms"},
    {"svc.period_growth", "ratio"},
    {"svc.snapshot_s", "s"},
    {"svc.capture_s", "s"},
    {"svc.serialize_s", "s"},
    {"svc.deserialize_s", "s"},
    {"svc.restore_s", "s"},
    {"svc.snapshot_bytes", "bytes"},
    {"svc.backpressure", "count"},
    {"svc.fork_s", "s"},
    {"svc.fork_branch_s", "s"},
    {"obs.attr_totals_us", "us"},
    {"sim.trace_average_us", "us"},
    {"obs.attr_service_share", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.profiler_overhead_pct", "%"},
    {"obs.auditor_overhead_pct", "%"},
    {"obs.attr_overhead_pct", "%"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// fig10 sink children and the per-layer metric each one yields.
constexpr std::pair<Mode, const char*> kSinkMetrics[] = {
    {Mode::kSinkTrace, "obs.trace_overhead_pct"},
    {Mode::kSinkProfiler, "obs.profiler_overhead_pct"},
    {Mode::kSinkAuditor, "obs.auditor_overhead_pct"},
    {Mode::kSinkAttr, "obs.attr_overhead_pct"},
};

/// A run ends by this many seconds after it starts, whatever --seconds
/// says: a timed-out child is killed and its jobs count as failed.
constexpr double kRunBudgetSeconds = 160.0;

struct ChildResult {
  /// Exited 0 with a complete report.
  bool ok = false;
  std::map<std::string, double> values;
  /// "setup_s" / "measured_s" split into slices of identical work.
  std::map<std::string, std::vector<double>> slices;
  std::string digest;
};

ChildResult spawn_child(Workload workload, Mode mode, std::uint64_t seed,
                        bool smoke, double timeout_seconds) {
  // Every child of a run starts from the same stack layout: the seed is
  // zero-padded to a fixed width and the environment is empty, since the
  // size of both shifts the initial stack and with it the alignment of
  // everything the child does (Mytkowicz et al., ASPLOS 2009).
  char padded_seed[24];
  std::snprintf(padded_seed, sizeof(padded_seed), "%020llu",
                static_cast<unsigned long long>(seed));
  std::vector<std::string> args = {"dmrbench",   "--child",
                                   mode_name(mode), "--workload",
                                   workload_name(workload), "--seed",
                                   padded_seed};
  if (smoke) args.emplace_back("--smoke");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  char* no_environment[] = {nullptr};

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe2");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), no_environment);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::system_error(spawned, std::generic_category(), "posix_spawn");
  }

  // Read the report until EOF; past the deadline the child is killed.
  std::string output;
  bool timed_out = false;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    pollfd readable{fds[0], POLLIN, 0};
    const int ready = poll(&readable, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) {
      kill(pid, SIGKILL);
      break;
    }
    if (ready == 0) continue;
    char buffer[4096];
    const ssize_t got = read(fds[0], buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    output.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  ChildResult result;
  bool complete = false;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      complete = true;
    } else if (key == "digest") {
      fields >> result.digest;
    } else if (key == "slices") {
      std::string name;
      fields >> name;
      std::vector<double>& slices = result.slices[name];
      for (double slice = 0.0; fields >> slice;) slices.push_back(slice);
    } else if (double value = 0.0; fields >> value) {
      result.values[key] = value;
    }
  }
  result.ok = !timed_out && complete && WIFEXITED(status) &&
              WEXITSTATUS(status) == 0;
  if (!result.ok) {
    std::fprintf(stderr, "dmrbench: %s %s child (seed %llu) %s\n",
                 workload_name(workload), mode_name(mode),
                 static_cast<unsigned long long>(seed),
                 timed_out ? "timed out and was killed"
                 : WIFSIGNALED(status) ? "crashed"
                                       : "failed");
  }
  return result;
}

/// The children of one workload and the checks across them.
struct RunSet {
  RunSet(Workload workload_in, bool smoke_in)
      : workload(workload_in), smoke(smoke_in) {}

  Workload workload;
  bool smoke;
  std::map<Mode, std::vector<ChildResult>> children;
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  bool crashed = false;
  std::string digest;

  void add(Mode mode, ChildResult result) {
    if (!result.ok) {
      // A crashed or timed-out child fails every job it was given.
      const long long jobs = expected_jobs(workload, smoke);
      attempted += jobs;
      failed += jobs;
      crashed = true;
      return;
    }
    const auto jobs = static_cast<long long>(result.values["jobs"]);
    attempted += jobs;
    failed += jobs - static_cast<long long>(result.values["completed"]);
    if (result.values["checks_failed"] > 0.0) correct = false;
    if (digest.empty()) {
      digest = result.digest;
    } else if (result.digest != digest) {
      correct = false;
      std::fprintf(stderr,
                   "dmrbench: check failed: %s %s child digest %s differs from "
                   "%s\n",
                   workload_name(workload), mode_name(mode),
                   result.digest.c_str(), digest.c_str());
    }
    children[mode].push_back(std::move(result));
  }

  const std::vector<ChildResult>& of(Mode mode) const {
    static const std::vector<ChildResult> kNone;
    const auto it = children.find(mode);
    return it == children.end() ? kNone : it->second;
  }
};

std::vector<double> values_of(const std::vector<ChildResult>& results,
                              const std::string& key) {
  std::vector<double> values;
  for (const ChildResult& result : results) {
    const auto it = result.values.find(key);
    if (it != result.values.end()) values.push_back(it->second);
  }
  return values;
}

/// The sum over slices of the fastest child's time for each slice.
/// Children of one workload and seed do identical work in slice i, and
/// noise from the rest of a shared machine only ever adds time, in
/// bursts from milliseconds to seconds long: a slice every child ran
/// slowly is rare, while a run whose children all met some burst is
/// not, so this sum is far steadier from run to run than any one
/// child's total or the children's median.
double slice_min_sum(const std::vector<ChildResult>& children,
                     const std::string& key) {
  std::size_t count = 0;
  for (const ChildResult& child : children) {
    const auto it = child.slices.find(key);
    if (it != child.slices.end()) count = std::max(count, it->second.size());
  }
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> at;
    for (const ChildResult& child : children) {
      const auto it = child.slices.find(key);
      if (it != child.slices.end() && i < it->second.size()) {
        at.push_back(it->second[i]);
      }
    }
    total += *std::min_element(at.begin(), at.end());
  }
  return total;
}

/// Each end-to-end metric's values, one per timed child: in the report
/// one fresh process is one run.
std::map<std::string, std::vector<double>> child_end_to_end(const RunSet& set) {
  std::map<std::string, std::vector<double>> metrics;
  for (const MetricSpec& spec : kEndToEnd) {
    metrics[spec.name] = values_of(set.of(Mode::kTimed), spec.name);
  }
  return metrics;
}

/// The end-to-end metrics of one benchmark run, from all its timed
/// children at once.
std::map<std::string, double> run_end_to_end(const RunSet& set) {
  const std::vector<ChildResult>& timed = set.of(Mode::kTimed);
  const double measured = slice_min_sum(timed, "measured_s");
  const double completed = median(values_of(timed, "completed"));
  return {{"jobs_per_s", measured > 0.0 ? completed / measured : 0.0},
          {"setup_s", slice_min_sum(timed, "setup_s")},
          {"peak_rss_mb", median(values_of(timed, "peak_rss_mb"))}};
}

/// Each per-layer metric: the median over the timed children that
/// measured it (tracing off), else over the traced children, else
/// derived from the two (overheads, against the median timed child,
/// since each observer run is a single child), else 0.
std::map<std::string, double> per_layer(const RunSet& set) {
  const std::vector<ChildResult>& timed = set.of(Mode::kTimed);
  const std::vector<ChildResult>& traced = set.of(Mode::kTraced);
  std::map<std::string, double> metrics;
  for (const MetricSpec& spec : kPerLayer) {
    std::vector<double> values = values_of(timed, spec.name);
    if (values.empty()) values = values_of(traced, spec.name);
    metrics[spec.name] = median(values);
  }
  const double timed_s = median(values_of(timed, "measured_s"));
  const auto overhead_pct = [&](const std::vector<ChildResult>& runs,
                                const char* key) {
    const std::vector<double> values = values_of(runs, key);
    return values.empty() || timed_s <= 0.0
               ? 0.0
               : (median(values) / timed_s - 1.0) * 100.0;
  };
  metrics["trace.overhead_pct"] = overhead_pct(traced, "trace.stepped_s");
  for (const auto& [mode, name] : kSinkMetrics) {
    metrics[name] = overhead_pct(set.of(mode), "measured_s");
  }
  const std::vector<double> attr_off =
      values_of(set.of(Mode::kAttrOff), "measured_s");
  if (!attr_off.empty() && timed_s > 0.0) {
    metrics["obs.attr_service_share"] = 1.0 - median(attr_off) / timed_s;
  }
  return metrics;
}

/// The children of one traced round: the traced child, plus fig10's
/// sink-attached children and the service's attribution-off stream.
std::vector<Mode> traced_round(Workload workload) {
  std::vector<Mode> modes = {Mode::kTraced};
  if (workload == Workload::kFig10) {
    for (const auto& [mode, name] : kSinkMetrics) modes.push_back(mode);
  }
  if (workload == Workload::kService) modes.push_back(Mode::kAttrOff);
  return modes;
}

/// Timed children in a run of about `seconds`: at least three, so every
/// slice has a minimum over several fresh processes.
int timed_children(Workload workload, int seconds, bool smoke) {
  const double child = smoke ? 0.1 : typical_child_seconds(workload);
  return std::clamp(static_cast<int>(seconds / child), 3, 50);
}

double finite(double value) { return std::isfinite(value) ? value : 0.0; }

const char* unit_of(const char* name) {
  for (const MetricSpec& spec : kEndToEnd) {
    if (std::string(spec.name) == name) return spec.unit;
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (std::string(spec.name) == name) return spec.unit;
  }
  return "";
}

}  // namespace

int run_once(Workload workload, std::uint64_t seed, int seconds, bool trace,
             bool smoke) {
  const Clock::time_point start = Clock::now();
  RunSet set(workload, smoke);
  // A fixed number of timed children, not "as many as fit": a run slowed
  // by the rest of the machine then still takes as many samples per
  // slice as any other run.
  std::vector<Mode> modes(
      static_cast<std::size_t>(timed_children(workload, seconds, smoke)),
      Mode::kTimed);
  if (trace) {
    for (const Mode mode : traced_round(workload)) modes.push_back(mode);
  }
  for (const Mode mode : modes) {
    const double left = kRunBudgetSeconds - seconds_since(start);
    set.add(mode, spawn_child(workload, mode, seed, smoke, left));
    if (set.crashed) break;
  }

  std::string metrics;
  const auto add_metric = [&](const std::string& name, double value) {
    char text[160];
    std::snprintf(text, sizeof(text), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), finite(value),
                  unit_of(name.c_str()));
    metrics += text;
  };
  if (trace) {
    const std::map<std::string, double> layers = per_layer(set);
    for (const MetricSpec& spec : kPerLayer) add_metric(spec.name, layers.at(spec.name));
  } else {
    const std::map<std::string, double> e2e = run_end_to_end(set);
    for (const MetricSpec& spec : kEndToEnd) add_metric(spec.name, e2e.at(spec.name));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}\n",
      set.correct ? "true" : "false", std::max(set.attempted, 1LL), set.failed,
      metrics.c_str());
  return set.correct && set.failed == 0 ? 0 : 1;
}

int run_report(std::optional<std::uint64_t> seed, int runs, bool smoke) {
  std::vector<RunSet> sets;
  for (const Workload workload : kAllWorkloads) sets.emplace_back(workload, smoke);
  const auto seed_of = [&](Workload workload) {
    return seed.value_or(default_seed(workload));
  };
  constexpr double kChildTimeout = 600.0;
  for (int run = 1; run <= runs; ++run) {
    for (RunSet& set : sets) {
      set.add(Mode::kTimed, spawn_child(set.workload, Mode::kTimed,
                                        seed_of(set.workload), smoke,
                                        kChildTimeout));
      const std::vector<double> rate =
          values_of(set.of(Mode::kTimed), "jobs_per_s");
      std::fprintf(stderr, "dmrbench: run %d/%d %-10s jobs_per_s %.0f\n", run,
                   runs, workload_name(set.workload),
                   rate.empty() ? 0.0 : rate.back());
    }
  }
  for (RunSet& set : sets) {
    for (const Mode mode : traced_round(set.workload)) {
      set.add(mode, spawn_child(set.workload, mode, seed_of(set.workload),
                                smoke, kChildTimeout));
    }
  }

  std::printf("# dmrbench%s: end-to-end metrics, one fresh process per run\n",
              smoke ? " --smoke (tiny sizes; not a performance gate)" : "");
  std::printf("%-11s %-26s %16s %16s %16s %4s  %s\n", "workload", "metric",
              "median", "q1", "q3", "n", "unit");
  for (const RunSet& set : sets) {
    for (const auto& [name, values] : child_end_to_end(set)) {
      const auto [q1, q3] = quartiles(values);
      std::printf("%-11s %-26s %16.6g %16.6g %16.6g %4zu  %s\n",
                  workload_name(set.workload), name.c_str(), median(values), q1,
                  q3, values.size(), unit_of(name.c_str()));
    }
    std::printf("%-11s %-26s %16.6g %16s %16s %4s  %s\n",
                workload_name(set.workload), "failed_frac",
                static_cast<double>(set.failed) /
                    static_cast<double>(std::max(set.attempted, 1LL)),
                "", "", "", "ratio");
  }
  std::printf("\n# per-layer metrics from the traced round (medians; tracing "
              "off where the layer allows)\n");
  int status = 0;
  for (const RunSet& set : sets) {
    const std::map<std::string, double> layers = per_layer(set);
    for (const MetricSpec& spec : kPerLayer) {
      std::printf("%-11s %-26s %16.6g  %s\n", workload_name(set.workload),
                  spec.name, layers.at(spec.name), spec.unit);
    }
    const double unattributed = layers.at("trace.unattributed_share");
    if (unattributed > 0.25) {
      std::printf("# warning: the %s trace leaves %.1f%% of the stepped wall "
                  "time unattributed (> 25%%)\n",
                  workload_name(set.workload), unattributed * 100.0);
    }
    std::printf("%-11s %-26s %16s  %s\n", workload_name(set.workload),
                "outcome_digest", set.digest.c_str(),
                set.correct ? "(all runs agree)" : "(MISMATCH)");
    if (!set.correct || set.failed > 0) status = 1;
  }
  if (status != 0) std::printf("dmrbench: FAILED outcome checks\n");
  return status;
}

}  // namespace dmrbench
