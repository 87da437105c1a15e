// Fig. 1 — execution time of the non-solving stages: Checkpoint/Restart
// vs the DMR API, 48 ranks resized to {12, 24, 48}.
//
// Real-mode measurement: 48 actual ranks are spawned, the resize really
// moves the data.  The C/R variant serializes the global state, writes it
// to disk with fsync, tears down all ranks and relaunches at the new
// size; the DMR variant spawns the new communicator and redistributes
// rank-to-rank in memory.  The paper reports spawn-cost ratios of
// 31.4x / 63.75x / 77x for its N-body application, whose state is 1 GB
// on a parallel filesystem.  An N-body state sized for one machine is a
// few hundred kilobytes: both spawn times are then a few milliseconds of
// thread start-up, and their ratio is noise that reads C/R faster than
// DMR in about half the runs.  So the bench replays the same resizes
// with a data-dominated FS array (256 MB), where the disk round-trip
// dominates as it does at cluster scale.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

#include "dmr/apps.hpp"
#include "dmr/ckpt.hpp"
#include "common.hpp"
#include "dmr/malleable.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

rt::MalleableConfig resize_config(int from, int to) {
  rt::MalleableConfig config;
  config.total_steps = 2;
  config.first_check_step = 1;
  // One-shot trigger: the 48 -> 48 "migration" case would otherwise
  // re-fire in the new process set of the same size.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  config.forced_decision = [from, to, fired](int step, int size)
      -> std::optional<rt::ResizeDecision> {
    if (step == 1 && size == from && !fired->exchange(true)) {
      rt::ResizeDecision d;
      // Same-size and smaller targets are "shrink-shaped" migrations.
      d.action = to > from ? rms::Action::Expand : rms::Action::Shrink;
      d.new_size = to;
      return d;
    }
    return std::nullopt;
  };
  return config;
}

struct Measurement {
  double dmr_spawn = 0.0;
  double cr_spawn = 0.0;
};

Measurement measure(int from, int to, rt::StateFactory factory,
                    const std::filesystem::path& dir) {
  Measurement m;
  {
    smpi::Universe universe;
    const auto report =
        rt::run_malleable(universe, nullptr, resize_config(from, to),
                          factory, from);
    universe.await_all();
    if (!universe.failures().empty()) {
      std::fprintf(stderr, "DMR run failed: %s\n",
                   universe.failures()[0].c_str());
      return m;
    }
    m.dmr_spawn = report.resizes.at(0).spawn_seconds;
  }
  {
    ckpt::CheckpointStore store({dir, /*fsync=*/true});
    smpi::Universe universe;
    const auto report = ckpt::run_checkpoint_restart(
        universe, resize_config(from, to), factory, from, store);
    universe.await_all();
    if (!universe.failures().empty()) {
      std::fprintf(stderr, "C/R run failed: %s\n",
                   universe.failures()[0].c_str());
      return m;
    }
    m.cr_spawn = report.resizes.at(0).spawn_seconds;
    store.clear();
  }
  return m;
}

}  // namespace

int main() {
  bench::print_header("Fig. 1",
                      "Non-solving stage time: C/R vs DMR API (FS, 256 MB)");

  const auto dir = std::filesystem::temp_directory_path() /
                   ("dmr_fig01_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  apps::FlexibleSleepConfig config;
  config.array_elements = std::size_t(32) << 20;  // 32M doubles = 256 MB
  util::TableWriter table({"Resize (init-new)", "DMR spawn (s)",
                           "C/R spawn (s)", "C/R / DMR"});
  for (int target : {12, 24, 48}) {
    const auto m = measure(48, target,
                           [config] {
                             return std::make_unique<
                                 apps::FlexibleSleepState>(config);
                           },
                           dir);
    table.add_row({"48-" + std::to_string(target),
                   util::TableWriter::cell(m.dmr_spawn, 4),
                   util::TableWriter::cell(m.cr_spawn, 4),
                   util::TableWriter::cell(
                       m.dmr_spawn > 0 ? m.cr_spawn / m.dmr_spawn : 0.0,
                       2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());

  std::filesystem::remove_all(dir);
  std::printf("(paper: C/R spawning costs 31.4x / 63.75x / 77x the DMR API "
              "for 48-12 / 48-24 / 48-48 because the state detours through "
              "disk)\n");
  return 0;
}
