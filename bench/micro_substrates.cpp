// Substrate microbenchmarks (google-benchmark): the primitive costs
// underneath the figure reproductions — mailbox matching, event-queue
// throughput, redistribution planning, policy decisions, scheduler
// passes, the driver's skipped-step advance, the metrics summaries and
// workload generation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "dmr/manager.hpp"
#include "dmr/redist.hpp"
#include "dmr/simulation.hpp"
#include "dmr/substrate.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

void BM_MailboxDepositReceive(benchmark::State& state) {
  smpi::Mailbox mailbox;
  const std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    smpi::Envelope envelope;
    envelope.source = 0;
    envelope.tag = 1;
    envelope.data = payload;
    mailbox.deposit(std::move(envelope));
    benchmark::DoNotOptimize(mailbox.receive(0, 1));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MailboxDepositReceive)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_MailboxPostedReceive(benchmark::State& state) {
  smpi::Mailbox mailbox;
  for (auto _ : state) {
    auto request = mailbox.post_receive(0, 7);
    smpi::Envelope envelope;
    envelope.source = 0;
    envelope.tag = 7;
    envelope.data.resize(64);
    mailbox.deposit(std::move(envelope));
    benchmark::DoNotOptimize(request.take_data());
  }
}
BENCHMARK(BM_MailboxPostedReceive);

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_RedistributionPlan(benchmark::State& state) {
  const auto old_parts = static_cast<int>(state.range(0));
  const auto new_parts = static_cast<int>(state.range(1));
  const Buffer desc{"plan", sizeof(double), 1 << 20, Layout::Block};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        redist::plan_transfers(desc, old_parts, new_parts));
  }
}
BENCHMARK(BM_RedistributionPlan)
    ->Args({2, 4})
    ->Args({48, 24})
    ->Args({64, 63})
    ->Args({512, 256});

void BM_ReconfigurationPolicy(benchmark::State& state) {
  rms::Job job;
  job.id = 1;
  job.state = rms::JobState::Running;
  job.nodes.assign(16, 0);
  job.requested_nodes = 16;
  std::vector<rms::Job> pending(static_cast<std::size_t>(state.range(0)));
  std::vector<const rms::Job*> pointers;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    pending[i].id = static_cast<rms::JobId>(i + 2);
    pending[i].requested_nodes = 8 + static_cast<int>(i % 17);
    pointers.push_back(&pending[i]);
  }
  rms::Request request;
  request.min_procs = 1;
  request.max_procs = 32;
  // The view borrows the queue, as Manager::dmr_decide hands it over;
  // ascending ids at one submit time are already in SubmitOrder.
  rms::PolicyView view;
  view.job = &job;
  view.idle_nodes = 4;
  view.pending = pointers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rms::reconfiguration_policy(view, request));
  }
}
BENCHMARK(BM_ReconfigurationPolicy)->Arg(0)->Arg(10)->Arg(100);

// One scheduling pass over `jobs` pending jobs.  het:0 is a 64-node
// homogeneous cluster with nothing running.  het:1 is a fast(48) +
// slow(32) cluster under Pack: pending jobs pinned to either partition
// or spanning both, eight running jobs granted by the cluster, two of
// them shrinking (their tail nodes draining), and diagnosis on.  That
// case predicts each start's grant over the idle bitmap and walks
// releases node by node, so sanitizer builds run that path too.
void BM_SchedulerPass(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const bool het = state.range(1) == 1;
  const rms::AllocPolicy alloc =
      het ? rms::AllocPolicy::Pack : rms::AllocPolicy::LowestId;
  const std::vector<rms::Partition> fast_slow = {{"fast", 48, 1.0},
                                                 {"slow", 32, 0.5}};
  rms::Cluster cluster = het ? rms::Cluster(fast_slow) : rms::Cluster(64);
  const auto partition_of = [het](std::size_t i) {
    return het && i % 3 != 2 ? static_cast<int>(i % 3) : rms::kAnyPartition;
  };
  std::vector<rms::Job> running(het ? 8 : 0);
  std::vector<const rms::Job*> running_list;
  for (std::size_t i = 0; i < running.size(); ++i) {
    rms::Job& job = running[i];
    job.id = static_cast<rms::JobId>(10000 + i);
    job.state = rms::JobState::Running;
    job.partition = partition_of(i);
    job.requested_nodes = 3 + static_cast<int>(i % 4) * 2;
    job.nodes = cluster.allocate(job.id, job.requested_nodes, job.partition,
                                 alloc);
    job.start_time = 100.0 * static_cast<double>(i);
    job.spec.time_limit = 900.0 + 50.0 * static_cast<double>(i);
    running_list.push_back(&job);
  }
  for (const std::size_t shrinking : {std::size_t(1), std::size_t(4)}) {
    if (shrinking >= running.size()) continue;
    const std::vector<int>& nodes = running[shrinking].nodes;
    const auto half = static_cast<std::ptrdiff_t>(nodes.size() / 2);
    cluster.set_draining({nodes.begin() + half, nodes.end()}, true);
  }
  std::vector<rms::Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].id = static_cast<rms::JobId>(i + 1);
    jobs[i].partition = partition_of(i);
    jobs[i].requested_nodes = 1 + static_cast<int>(i % 32);
    jobs[i].spec.time_limit = 100.0 + static_cast<double>(i % 7) * 50.0;
    jobs[i].submit_time = static_cast<double>(i);
  }
  // The pass reads a queue already in SubmitOrder, as Manager::schedule
  // hands it over (the manager keeps its queue in that order), so the
  // ordering happens once, outside the timed loop.
  rms::SchedulerConfig config;
  config.alloc = alloc;
  std::vector<const rms::Job*> queue;
  for (const auto& job : jobs) queue.push_back(&job);
  std::sort(queue.begin(), queue.end(), rms::SubmitOrder{});
  rms::ScheduleView view;
  view.now = 1000.0;
  view.idle_nodes = cluster.idle();
  view.pending = queue;
  view.running = running_list;
  if (het) {
    view.node_draining = cluster.node_draining();
    view.node_partition = cluster.node_partitions();
    view.idle_per_partition = cluster.idle_per_partition();
    view.idle_bits = cluster.idle_bits();
  }
  std::vector<rms::BlockDiag> blocked;
  std::vector<const rms::Job*> started;
  for (auto _ : state) {
    blocked.clear();
    rms::schedule_pass(view, config, started, het ? &blocked : nullptr);
    benchmark::DoNotOptimize(started.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_SchedulerPass)
    ->ArgNames({"jobs", "het"})
    ->ArgsProduct({{10, 100, 1000}, {0, 1}});

void BM_DmrCheckFullStack(benchmark::State& state) {
  // A full reconfiguring point against a loaded manager (policy +
  // resizer-job protocol when an action is granted).
  for (auto _ : state) {
    state.PauseTiming();
    rms::Manager manager(rms::RmsConfig{.nodes = 64, .scheduler = {},
                                        .shrink_priority_boost = true});
    rms::JobSpec spec;
    spec.name = "flex";
    spec.requested_nodes = 8;
    spec.min_nodes = 1;
    const rms::JobId job = manager.submit(spec, 0.0);
    manager.schedule(0.0);
    rms::Request request;
    request.min_procs = 1;
    request.max_procs = 64;
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.dmr_check(job, request, 1.0));
  }
}
BENCHMARK(BM_DmrCheckFullStack);

// One driver step event's advance over the steps it skips, in closed
// form (drv::advance_steps) or by the step-by-step loop it replaced
// (loop:1), on two shapes: a rigid 25-step archive job (24 skipped
// steps) and CG at 32 nodes (Table I: 0.055 s steps, 15 s inhibitor,
// ~273 skipped steps up to each check that reaches the RMS).  Every call
// starts from the same clock, so the calls are independent and a case
// times what one call costs, not a chain of calls each waiting on the
// clock the last one returned.  Replaying one input lets the branch
// predictor learn the search's path: BM_AdvanceStepsDrawn is the case
// with realistic inputs.
void BM_AdvanceSteps(benchmark::State& state) {
  const bool cg = state.range(0) == 1;
  const bool loop = state.range(1) == 1;
  const apps::AppModel model = apps::cg_model();
  // Inputs are read through volatiles, so the loop cannot be folded at
  // compile time.  benchmark::DoNotOptimize would not do: under GCC 12,
  // libbenchmark 1.7's "+m,r" constraint overwrites a double it is
  // handed by reference.
  volatile double step_in = cg ? model.step_seconds(32) : 3.7;
  volatile int skipped_in = cg ? model.iterations - 1 : 24;
  volatile double start = cg ? 600.0 : 1.0e6;
  const double step = step_in;
  const int skipped = skipped_in;
  std::int64_t steps = 0;
  for (auto _ : state) {
    const double now = start;
    Inhibitor inhibitor(model.sched_period);
    if (cg) inhibitor.allow(now);
    const Inhibitor* stop = cg ? &inhibitor : nullptr;
    drv::StepRun run{now + step, 0};
    if (loop) {
      while (run.steps < skipped &&
             !(stop != nullptr && stop->would_allow(run.at))) {
        run.at += step;
        ++run.steps;
      }
    } else {
      run = drv::advance_steps(now + step, step, skipped, stop);
    }
    benchmark::DoNotOptimize(run);
    steps += run.steps;
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_AdvanceSteps)
    ->ArgNames({"cg", "loop"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// The CG shape of BM_AdvanceSteps with what a workload varies from one
// event to the next drawn from a seeded sequence: the clock, how far the
// inhibitor's window has run (so the first open step falls anywhere from
// the next one to ~273 ahead) and the steps left.  Replaying one input,
// as BM_AdvanceSteps does, lets the branch predictor learn the search's
// path; 4096 drawn inputs, cycled, do not.  Read this case for what the
// search costs a workload.
void BM_AdvanceStepsDrawn(benchmark::State& state) {
  const bool loop = state.range(0) == 1;
  const apps::AppModel model = apps::cg_model();
  const double step = model.step_seconds(32);
  struct Draw {
    double now;
    double since_check;
    int skipped;
  };
  std::vector<Draw> draws(4096);
  std::mt19937_64 rng(2017);
  for (Draw& draw : draws) {
    draw.now = std::uniform_real_distribution<double>(600.0, 1e5)(rng);
    draw.since_check =
        std::uniform_real_distribution<double>(0.0, model.sched_period)(rng);
    draw.skipped =
        std::uniform_int_distribution<int>(1, model.iterations - 1)(rng);
  }
  std::size_t next = 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    const Draw& draw = draws[next];
    next = (next + 1) % draws.size();
    Inhibitor inhibitor(model.sched_period);
    inhibitor.allow(draw.now - draw.since_check);
    drv::StepRun run{draw.now + step, 0};
    if (loop) {
      while (run.steps < draw.skipped && !inhibitor.would_allow(run.at)) {
        run.at += step;
        ++run.steps;
      }
    } else {
      run = drv::advance_steps(run.at, step, draw.skipped, &inhibitor);
    }
    benchmark::DoNotOptimize(run);
    steps += run.steps;
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_AdvanceStepsDrawn)->ArgNames({"loop"})->Arg(0)->Arg(1);

void BM_FeitelsonGenerate(benchmark::State& state) {
  wl::FeitelsonParams params;
  params.jobs = static_cast<int>(state.range(0));
  params.max_size = 20;
  for (auto _ : state) {
    params.seed += 1;
    benchmark::DoNotOptimize(wl::generate_feitelson(params));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FeitelsonGenerate)->Arg(100)->Arg(1000);

// util::summarize over seeded samples shaped like an archive replay's
// (execs:0 its waits, 70% +0.0 and the rest exponential; execs:1 its
// executions, log-uniform from a second to a day): the Table II
// summaries WorkloadDriver::collect_metrics computes, an in-order sum
// with the NaN check, then std::nth_element and one scan of the top 5%.
// Each iteration copies the samples in, as collect_metrics hands over
// its vectors.
void BM_Summarize(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const bool execs = state.range(1) == 1;
  util::Rng rng(42);
  std::vector<double> samples(count);
  for (double& x : samples) {
    if (execs) {
      x = std::exp(rng.uniform(0.0, std::log(86400.0)));
    } else {
      x = rng.bernoulli(0.7) ? 0.0 : rng.exponential_mean(3600.0);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::summarize(samples));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_Summarize)
    ->ArgNames({"samples", "execs"})
    ->ArgsProduct({{50, 2500, 300000}, {0, 1}});

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

}  // namespace
