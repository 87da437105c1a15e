// dmrsim — command-line workload simulator.
//
// Runs a synthetic (FS, Feitelson-generated) or realistic (CG / Jacobi /
// N-body mix) workload through the virtual cluster and prints metrics,
// optionally with the per-job accounting ledger and timeline CSVs.
//
// Usage:
//   dmrsim [key=value ...]
//     workload=fs|mix      workload family            (default fs)
//     jobs=N               number of jobs             (default 50)
//     nodes=N              cluster size               (default 20 fs / 64 mix)
//     flexible=0|1         malleable jobs             (default 1)
//     moldable=0|1         moldable submission        (default 0)
//     async=0|1            dmr_icheck_status mode     (default 0)
//     period=SECONDS       inhibitor override         (default per app)
//     arrival=SECONDS      mean inter-arrival         (default 10 fs / 30 mix)
//     seed=N               workload seed              (default 2017)
//     scale=X              iteration-count scale      (default 1.0, <= 1000)
//     accounting=0|1       print the sacct-style log  (default 0)
//     csv=PREFIX           dump timeline CSVs to PREFIX_<series>.csv
//
// Anything else exits with status 2 naming the argument: an unknown key,
// an argument without '=', a workload other than fs or mix, a switch
// other than 0 or 1, or a number out of range.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

struct Options {
  std::string workload = "fs";
  int jobs = 50;
  int nodes = 20;
  bool flexible = true;
  bool moldable = false;
  bool asynchronous = false;
  double period = -1.0;  // negative: the application's own period
  double arrival = 10.0;
  std::uint64_t seed = 2017;
  double scale = 1.0;
  bool accounting = false;
  std::string csv_prefix;
};

[[noreturn]] void reject(const char* arg, const char* why) {
  std::fprintf(stderr, "%s: %s\n", arg, why);
  std::exit(2);
}

/// A 0/1 switch: any other text exits 2 naming `name`.
bool parse_switch(const char* text, const char* name) {
  return util::parse_u64(text, name, 1) == 1;
}

Options parse(int argc, char** argv) {
  constexpr double kMaxReal = std::numeric_limits<double>::max();
  Options options;
  std::optional<int> nodes;
  std::optional<double> arrival;
  for (int i = 1; i < argc; ++i) {
    const auto kv = util::parse_key_value(argv[i]);
    if (!kv) reject(argv[i], "not a key=value argument");
    const auto& [key, text] = *kv;
    const char* value = text.c_str();
    if (key == "workload") {
      if (text != "fs" && text != "mix") reject(argv[i], "not fs or mix");
      options.workload = text;
    } else if (key == "jobs") {
      options.jobs = util::parse_count(value, "jobs");
    } else if (key == "nodes") {
      nodes = util::parse_count(value, "nodes");
    } else if (key == "flexible") {
      options.flexible = parse_switch(value, "flexible");
    } else if (key == "moldable") {
      options.moldable = parse_switch(value, "moldable");
    } else if (key == "async") {
      options.asynchronous = parse_switch(value, "async");
    } else if (key == "period") {
      options.period = util::parse_real(value, "period", 0.0, kMaxReal);
    } else if (key == "arrival") {
      arrival = util::parse_real(value, "arrival", 0.0, kMaxReal);
    } else if (key == "seed") {
      options.seed = util::parse_u64(value, "seed");
    } else if (key == "scale") {
      options.scale = util::parse_real(value, "scale", 0.0, 1000.0);
    } else if (key == "accounting") {
      options.accounting = parse_switch(value, "accounting");
    } else if (key == "csv") {
      options.csv_prefix = text;
    } else {
      reject(argv[i], "unknown option");
    }
  }
  const bool mix = options.workload == "mix";
  options.nodes = nodes.value_or(mix ? 64 : 20);
  options.arrival = arrival.value_or(mix ? 30.0 : 10.0);
  return options;
}

void add_fs_jobs(drv::WorkloadDriver& driver, const Options& options) {
  wl::FeitelsonParams params;
  params.jobs = options.jobs;
  params.max_size = options.nodes;
  params.mean_interarrival = options.arrival;
  params.max_runtime = 1500.0;
  params.short_runtime_mean = 60.0;
  params.long_runtime_mean = 600.0;
  params.seed = options.seed;
  for (const auto& job : wl::generate_feitelson(params)) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    const int steps = std::max(1, static_cast<int>(25 * options.scale));
    plan.model = apps::fs_model(steps, job.size, job.runtime / steps,
                                options.nodes, std::size_t(1) << 30);
    plan.submit_nodes = job.size;
    plan.flexible = options.flexible;
    plan.moldable = options.moldable;
    driver.submit_at(std::move(plan));
  }
}

void add_mix_jobs(drv::WorkloadDriver& driver, const Options& options) {
  util::Rng rng(options.seed);
  std::vector<int> classes(static_cast<std::size_t>(options.jobs));
  for (int i = 0; i < options.jobs; ++i) {
    classes[static_cast<std::size_t>(i)] = i % 3;
  }
  rng.shuffle(classes);
  double arrival = 0.0;
  for (int i = 0; i < options.jobs; ++i) {
    arrival += rng.exponential_mean(options.arrival);
    drv::JobPlan plan;
    switch (classes[static_cast<std::size_t>(i)]) {
      case 0: plan.model = apps::cg_model(); break;
      case 1: plan.model = apps::jacobi_model(); break;
      default: plan.model = apps::nbody_model(); break;
    }
    plan.model.iterations = std::max(
        1, static_cast<int>(plan.model.iterations * options.scale));
    plan.arrival = arrival;
    plan.submit_nodes = std::min(plan.model.request.max_procs, options.nodes);
    plan.flexible = options.flexible;
    plan.moldable = options.moldable;
    driver.submit_at(std::move(plan));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);

  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = options.nodes;
  config.asynchronous = options.asynchronous;
  config.sched_period_override = options.period;
  drv::WorkloadDriver driver(engine, config);
  // Accounting must attach before jobs run.
  rms::Accounting accounting(driver.manager_mutable());

  if (options.workload == "mix") {
    add_mix_jobs(driver, options);
  } else {
    add_fs_jobs(driver, options);
  }

  const auto metrics = driver.run();
  std::printf("workload=%s jobs=%d nodes=%d flexible=%d moldable=%d "
              "async=%d seed=%llu\n",
              options.workload.c_str(), options.jobs, options.nodes,
              options.flexible ? 1 : 0, options.moldable ? 1 : 0,
              options.asynchronous ? 1 : 0,
              static_cast<unsigned long long>(options.seed));
  std::printf("makespan          %12.1f s\n", metrics.makespan);
  std::printf("utilization       %12.2f %%\n", metrics.utilization * 100.0);
  std::printf("avg wait          %12.1f s\n", metrics.wait.mean);
  std::printf("avg execution     %12.1f s\n", metrics.execution.mean);
  std::printf("avg completion    %12.1f s\n", metrics.completion.mean);
  std::printf("expands/shrinks   %8lld / %lld (%lld checks, %lld aborted)\n",
              metrics.expands, metrics.shrinks, metrics.checks,
              metrics.aborted_expands);
  std::printf("node-seconds      %12.1f\n", accounting.total_node_seconds());

  if (options.accounting) {
    std::printf("\n%s", accounting.render().c_str());
  }
  if (!options.csv_prefix.empty()) {
    for (const auto& series : driver.trace().names()) {
      const std::string path = options.csv_prefix + "_" + series + ".csv";
      std::ofstream out(path);
      out << driver.trace().to_csv(series);
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}
