#include "rt/malleable_app.hpp"

#include <atomic>
#include <mutex>

#include "util/clock.hpp"

namespace dmr::rt {

namespace {

using util::wall_seconds;

constexpr int kMetaTag = 9001;
constexpr int kGoTag = 9002;

/// Shared control block for one malleable run: survives across process
/// sets, collects the report, and carries resize timing between the old
/// and the new set.
struct Control : std::enable_shared_from_this<Control> {
  MalleableConfig config;
  StateFactory factory;
  std::shared_ptr<::dmr::ReconfigPoint> point;

  std::mutex mu;
  RunReport report;
  double started_at = 0.0;
  double resize_begin = 0.0;  // stamped by old rank 0 before the spawn
  std::promise<RunReport> done;

  void entry(smpi::Context& ctx);
  ResizeDecision decide(smpi::Context& ctx, int step);
};

ResizeDecision Control::decide(smpi::Context& ctx, int step) {
  if (config.forced_decision) {
    ResizeDecision none;
    // The hook runs on rank 0 and is broadcast for consistency with the
    // negotiated path.
    std::optional<ResizeDecision> forced;
    if (ctx.rank() == 0) forced = config.forced_decision(step, ctx.size());
    std::vector<int> header(2, 0);
    if (ctx.rank() == 0 && forced) {
      header[0] = static_cast<int>(forced->action);
      header[1] = forced->new_size;
    }
    ctx.world().bcast(header, 0);
    if (header[0] == static_cast<int>(Action::None)) return none;
    ResizeDecision decision;
    decision.action = static_cast<Action>(header[0]);
    decision.new_size = header[1];
    return decision;
  }
  if (!point) return ResizeDecision{};
  return point->check(ctx.world(), config.asynchronous
                                       ? ::dmr::Mode::Async
                                       : ::dmr::Mode::Sync);
}

void Control::entry(smpi::Context& ctx) {
  auto state = factory();
  int t0 = 0;
  if (ctx.parent()) {
    const auto meta = ctx.parent()->recv<int>(0, kMetaTag);
    t0 = meta[0];
    const int old_size = meta[1];
    const auto action = static_cast<Action>(meta[2]);
    const redist::Report mine =
        state->recv_state(*ctx.parent(), ctx.rank(), old_size, ctx.size());
    if (action == Action::Shrink && ctx.rank() == 0) {
      // Shrink drain protocol: do not negotiate again until the retiring
      // set released its nodes (the RMS still sees the old allocation).
      (void)ctx.parent()->recv_value<int>(0, kGoTag);
    }
    // Aggregate the per-rank recv reports into the resize's effective
    // movement: total bytes over the slowest rank's wall time.
    const std::size_t bytes = ctx.world().allreduce_sum(mine.bytes_moved);
    const int transfers = ctx.world().allreduce_sum(mine.transfers);
    const double seconds = ctx.world().allreduce(
        mine.seconds, [](double a, double b) { return a > b ? a : b; });
    ctx.world().barrier();
    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      ResizeRecord& record = report.resizes.back();
      record.spawn_seconds = wall_seconds() - resize_begin;
      record.bytes_redistributed = bytes;
      record.redistribution_transfers = transfers;
      record.redistribution_seconds = seconds;
    }
  } else {
    state->init(ctx.rank(), ctx.size());
    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      started_at = wall_seconds();
    }
  }

  for (int t = t0; t < config.total_steps; ++t) {
    ResizeDecision decision;
    if (t >= config.first_check_step) decision = decide(ctx, t);
    if (decision.action != Action::None) {
      if (ctx.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        ResizeRecord record;
        record.step = t;
        record.old_size = ctx.size();
        record.new_size = decision.new_size;
        record.action = decision.action;
        report.resizes.push_back(record);
        resize_begin = wall_seconds();
      }
      auto self = shared_from_this();
      const smpi::Comm inter =
          ctx.spawn(ctx.world(), decision.new_size,
                    [self](smpi::Context& child) { self->entry(child); },
                    decision.hosts);
      if (ctx.rank() == 0) {
        for (int r = 0; r < decision.new_size; ++r) {
          const int meta[3] = {t, ctx.size(),
                               static_cast<int>(decision.action)};
          inter.send(r, kMetaTag, std::span<const int>(meta, 3));
        }
      }
      state->send_state(inter, ctx.rank(), ctx.size(), decision.new_size);
      if (decision.action == Action::Shrink) {
        if (point) point->finish_shrink(ctx.world());
        if (ctx.rank() == 0) inter.send_value(0, kGoTag, 1);
      }
      // Old ranks retire; the new communicator continues from step t.
      return;
    }
    state->compute_step(ctx.world(), t);
  }

  if (point) point->finish_job(ctx.world());
  ctx.world().barrier();
  if (ctx.rank() == 0) {
    std::lock_guard<std::mutex> lock(mu);
    report.final_size = ctx.size();
    report.steps_executed = config.total_steps;
    report.total_seconds = wall_seconds() - started_at;
    done.set_value(report);
  }
}

}  // namespace

std::future<RunReport> start_malleable(
    smpi::Universe& universe, std::shared_ptr<::dmr::ReconfigPoint> point,
    MalleableConfig config, StateFactory factory, int initial_size,
    std::vector<std::string> hosts) {
  auto control = std::make_shared<Control>();
  control->config = std::move(config);
  control->factory = std::move(factory);
  control->point = std::move(point);
  auto future = control->done.get_future();
  universe.launch("malleable", initial_size,
                  [control](smpi::Context& ctx) { control->entry(ctx); },
                  std::move(hosts));
  return future;
}

RunReport run_malleable(smpi::Universe& universe,
                        std::shared_ptr<::dmr::ReconfigPoint> point,
                        MalleableConfig config, StateFactory factory,
                        int initial_size, std::vector<std::string> hosts) {
  auto future = start_malleable(universe, std::move(point),
                                std::move(config), std::move(factory),
                                initial_size, std::move(hosts));
  return future.get();
}

}  // namespace dmr::rt
