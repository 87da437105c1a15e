// obs::Event — the one lifecycle event stream every observer reads.
//
// Each job transition of the paper's model (submit, start, expand through
// the resizer-job protocol, two-phase shrink, finish) and each unit of
// simulator work around it (schedule pass, Algorithm-1 negotiate/apply,
// placement, engine dispatch, modeled redistribution, service sample) is
// reported once, as one typed Event, to the SinkList of the layer where
// it happens.  Observers are Sinks: each declares the kinds it wants and
// does its own filtering (resizer pseudo-jobs reach every sink; sinks
// that model user jobs skip them) and its own wall-clock timing (the
// *Begin kinds mark where timed work starts).
//
// A SinkList keeps the union of its sinks' interests as one bit mask,
// and every emit site tests its kind's bit first, so a kind nobody
// subscribed to costs one test.  Delivery is synchronous, in attach
// order; sinks are held by reference and must outlive the layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dmr/types.hpp"

namespace dmr::rms {
class Manager;
}
namespace dmr::fed {
class Federation;
struct ClusterStatus;
}  // namespace dmr::fed
namespace dmr::redist {
struct Report;
}
namespace dmr::svc {
struct MetricsSample;
}

namespace dmr::obs {

/// Why a pending job did not start at a decision point.
enum class BlockReason : int {
  /// Open segment not yet diagnosed (back-dated by the first diagnosis;
  /// a non-zero total here means a decision point is not reporting).
  kUnattributed = 0,
  /// Not enough idle nodes in the job's eligible pool.
  kInsufficientIdle,
  /// Fits right now, but starting it would delay the blocked queue head
  /// the EASY reservation protects (with backfill disabled: held behind
  /// the FCFS head, the degenerate whole-pool reservation).
  kEasyReservation,
  /// The cluster has enough idle nodes overall, but the job's pinned
  /// partition does not.
  kPartitionPinned,
  /// Would fit once in-progress drains release their nodes.
  kDrainingWait,
  /// A priority-boosted job waiting on the shrink that was started on
  /// its behalf (Algorithm 1 line 18).
  kShrinkPending,
};

constexpr int kBlockReasonCount = 6;

/// What happened.  Unless noted, `job`, `member`, `now` and `manager`
/// name the job, its member cluster, the simulated instant and the
/// member's manager.
enum class EventKind : std::uint8_t {
  kSubmitted,       ///< queued (resizers included); new_size = requested
  kPlaced,          ///< routed to `member`; new_size = requested,
                    ///< `federation` + `statuses` = what the policy saw
  kBlocked,         ///< pending job (re)diagnosed: `cause`, `blocker`
  kStarted,         ///< new_size = nodes allocated
  kExpanded,        ///< expansion granted: old_size -> new_size
  kShrinkBegun,     ///< draining starts: old_size -> new_size
  kShrinkEnded,     ///< drain completed: old_size -> new_size
  kFinished,        ///< completed or cancelled (see the job's state)
  kAllocChanged,    ///< the member's user allocation changed (job unset)
  kPassBegin,       ///< a schedule() call starts real passes (job unset)
  kPass,            ///< ... and finished them
  kNegotiateBegin,  ///< Algorithm 1 starts deciding for `job`
  kNegotiated,      ///< decided `action`; new_size = the granted size
  kApplyBegin,      ///< a decision is about to be applied to `job`
  kApplied,         ///< applied: `action`, `aborted`
  kDispatch,        ///< the engine dispatches the event at `now`; see
                    ///< `dispatch` (job, member, manager unset)
  kRedistributed,   ///< modeled data movement for `action`, old_size ->
                    ///< new_size: `report`, `bytes` = declared state
  kSample,          ///< the service sampled `federation`: `sample`
};

constexpr int kEventKindCount = 18;

/// A bit per EventKind: what a sink subscribes to.
using Interest = std::uint32_t;

constexpr Interest bit(EventKind kind) {
  return Interest{1} << static_cast<unsigned>(kind);
}

template <typename... Kinds>
constexpr Interest kinds(Kinds... each) {
  return (bit(each) | ...);
}

constexpr Interest kAllKinds = (Interest{1} << kEventKindCount) - 1;

/// Where a dispatched event sat in the engine's (time, lane, seq) order:
/// `clock` is the engine time before this dispatch, and events with a
/// seq below `watermark` coexisted in the queue with it.
struct DispatchOrder {
  int lane = 0;
  std::uint64_t seq = 0;
  double clock = 0.0;
  std::uint64_t watermark = 0;
};

struct Event {
  EventKind kind = EventKind::kSubmitted;
  JobId job = kInvalidJob;
  int member = 0;
  double now = 0.0;
  int old_size = 0;
  int new_size = 0;
  const rms::Manager* manager = nullptr;

  // --- kind-specific detail (see EventKind) ---------------------------------
  BlockReason cause = BlockReason::kUnattributed;
  JobId blocker = 0;
  Action action = Action::None;
  bool aborted = false;
  std::size_t bytes = 0;
  DispatchOrder dispatch = {};
  const fed::Federation* federation = nullptr;
  const std::vector<fed::ClusterStatus>* statuses = nullptr;
  const redist::Report* report = nullptr;
  const svc::MetricsSample* sample = nullptr;
};

class Sink {
 public:
  Sink() = default;
  /// Lists hold sinks by address: a copy would silently not be attached.
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  virtual ~Sink() = default;
  /// The kinds this sink receives; read once, when it is attached.
  virtual Interest interest() const = 0;
  virtual void on_event(const Event& event) = 0;
};

/// The attach point every emitting layer owns.
class SinkList {
 public:
  void attach(Sink& sink) {
    sinks_.push_back(Entry{&sink, sink.interest()});
    mask_ |= sinks_.back().interest;
  }
  /// Remove every attachment of `sink` (no-op when absent).
  void detach(Sink& sink) {
    std::erase_if(sinks_, [&sink](const Entry& entry) {
      return entry.sink == &sink;
    });
    mask_ = 0;
    for (const Entry& entry : sinks_) mask_ |= entry.interest;
  }

  /// The emit-site test: true when some sink subscribed to `kind`.
  bool wants(EventKind kind) const { return (mask_ & bit(kind)) != 0; }

  void emit(const Event& event) const {
    for (const Entry& entry : sinks_) {
      if ((entry.interest & bit(event.kind)) != 0) {
        entry.sink->on_event(event);
      }
    }
  }

 private:
  struct Entry {
    Sink* sink;
    Interest interest;
  };
  std::vector<Entry> sinks_;
  Interest mask_ = 0;
};

}  // namespace dmr::obs
