// Discrete-event simulation engine.
//
// The workload-scale experiments (Figs. 3-12, Table II) run the resource
// manager and hundreds of jobs in virtual time on this engine.  Events are
// ordered by (time, lane, sequence) so same-instant events fire in a
// deterministic order, which keeps runs bit-reproducible.
//
// Lanes make that order *canonical* across different scheduling
// histories: a submission arrival scheduled up front (batch replay) and
// the same arrival scheduled mid-run (streaming service mode) land in
// the same position relative to other events at the same instant.  The
// resident service's snapshot/restore machinery depends on this — a
// restored run re-schedules the whole submission log before running, and
// lanes guarantee the replayed event interleaving matches the live one.
//
// The surface is deliberately small: schedule (fire-and-forget, no
// handle), run (step / run / run_until), observe (now / queued / empty /
// executed, plus a kDispatch sink).  A scheduled event always fires; a
// caller that may change its mind checks its own state when it does.
//
// Archive-scale internals (100k-job SWF replays queue every arrival up
// front):
//
//  - The event list is a two-level calendar: a ring of day buckets
//    covering one "year" of simulated time plus an overflow list for
//    events beyond it.  The day under the cursor is drained through a
//    sorted `active_` vector (descending, popped from the back); future
//    days hold unsorted entries that are sorted once, when their day
//    arrives.  Total order is exactly the (time, lane, seq) heap order —
//    the layout is invisible to outcomes.
//
//  - Each queued event owns a slot: a 48-byte in-place callback
//    (detail::InlineCallback) inside stable slot chunks, recycled through
//    a LIFO free list.  No per-event heap allocation on the hot path; a
//    capture that does not fit is a compile error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace dmr::chk {
struct TestBackdoor;
}  // namespace dmr::chk

namespace dmr::sim {

using SimTime = double;

/// Same-instant ordering bands.  Within a lane, events fire in the order
/// they were scheduled; across lanes the lower lane always fires first.
enum class Lane : std::uint8_t {
  /// Job submissions: always first at their instant, whether scheduled up
  /// front (batch / snapshot replay) or mid-run (streaming service).
  Arrival = 0,
  /// Everything else (the default).
  Normal = 1,
  /// Observers (the service's metrics sampler): fire after every
  /// state-changing event at the same instant, so a sample at time t
  /// always sees the settled post-t state.
  Sample = 2,
};

namespace detail {

/// Move-free small-buffer callable, constructed in place.  The object
/// never moves (slots sit in stable chunks), so the callable needs no
/// move constructor and no virtual dispatch — two function pointers.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;
  ~InlineCallback() { destroy(); }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  bool empty() const { return invoke_ == nullptr; }

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>,
                  "Engine: callback must be invocable with ()");
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "Engine: callback capture exceeds the 48-byte inline slot; "
                  "capture a pointer to the state instead");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "Engine: over-aligned captures unsupported");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
  }

  void invoke() { invoke_(buf_); }

  void destroy() {
    if (invoke_ == nullptr) return;
    destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace detail

class Engine {
 public:
  Engine();  // out of line: CallbackChunk is incomplete here
  ~Engine();
  /// Pinned: slot chunks hold live closures that may capture `this`.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `at`.  Throws
  /// std::invalid_argument when `at` is before now() or not finite.
  template <typename F>
  void schedule_at(SimTime at, F&& fn, Lane lane = Lane::Normal) {
    const std::uint32_t slot = schedule_slot(at, lane);
    slot_callback(slot).emplace(std::forward<F>(fn));
  }

  /// Schedule `fn` after a virtual delay (>= 0).
  template <typename F>
  void schedule_after(SimTime delay, F&& fn, Lane lane = Lane::Normal) {
    if (delay < 0.0) {
      throw std::invalid_argument("Engine::schedule_after: negative delay");
    }
    schedule_at(now_ + delay, std::forward<F>(fn), lane);
  }

  /// Number of events scheduled and not yet fired.
  std::size_t queued() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Run a single event; returns false when no events remain.
  bool step();

  /// Run until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = std::numeric_limits<std::size_t>::max());

  /// Run events with time <= t_end, then advance the clock to t_end.
  /// Throws std::invalid_argument (running nothing) when t_end is not
  /// finite.
  std::size_t run_until(SimTime t_end);

  /// Events executed so far (monotone counter, for tests/telemetry).
  std::uint64_t executed() const { return executed_; }

  /// Subscribe `sink` to obs::EventKind::kDispatch, reported as each
  /// event leaves the queue (unsubscribed, one mask test per event).
  void attach(obs::Sink& sink) { sinks_.attach(sink); }
  void detach(obs::Sink& sink) { sinks_.detach(sink); }

 private:
  /// Test-only state corruption for auditor failure-path tests.
  friend struct ::dmr::chk::TestBackdoor;

  /// One queued event: 24 bytes, trivially copyable.  (lane, seq) are
  /// packed so one integer compare gives their order.
  struct Entry {
    SimTime time;
    std::uint64_t lane_seq;
    std::uint32_t slot;
  };
  /// Descending (time, lane, seq): sorted ranges are consumed backwards.
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.lane_seq > b.lane_seq;
    }
  };

  static constexpr std::uint64_t kSeqBits = 62;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t(1) << kSeqBits) - 1;
  static constexpr std::size_t kDays = 256;  // ring size (power of two)
  static constexpr std::size_t kChunkSlots = 512;

  static std::uint64_t pack_lane_seq(Lane lane, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(lane) << kSeqBits) | seq;
  }

  /// Guarded entry insertion + slot allocation; the callback is emplaced
  /// by the schedule_at template after this returns.
  std::uint32_t schedule_slot(SimTime at, Lane lane);
  std::uint32_t allocate_slot();
  detail::InlineCallback& slot_callback(std::uint32_t slot);

  void insert_entry(const Entry& entry);
  /// Ensure active_.back() is the global minimum; false when the calendar
  /// is empty.
  bool settle_front();
  std::int64_t next_set_day(std::int64_t after) const;
  /// Ring empty: re-anchor the year at the overflow minimum (adapting
  /// the bucket width to the overflow span) and re-bucket its entries.
  void advance_year();
  /// Fold the unsorted overflow appendix into the sorted prefix.
  void merge_overflow();
  /// Re-anchor and re-bucket everything (width adaptation on growth).
  void rebuild();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t size_ = 0;  // queued events
  obs::SinkList sinks_;
  /// Reused for every dispatch report (only its time and order change).
  obs::Event dispatch_{.kind = obs::EventKind::kDispatch};

  // --- calendar ------------------------------------------------------------
  double width_ = 1.0;                     // day length (seconds)
  double inv_width_ = 1.0;                 // 1/width_: no div per insert
  double epoch_ = 0.0;                     // start time of ring day 0
  double year_limit_ = double(kDays);      // epoch_ + width_ * kDays
  std::int64_t active_day_ = 0;            // day being drained (-1: none yet)
  std::vector<Entry> active_;              // sorted descending, pop from back
  std::vector<std::vector<Entry>> buckets_ =
      std::vector<std::vector<Entry>>(kDays);
  std::uint64_t bucket_bits_[kDays / 64] = {};
  std::vector<Entry> overflow_;            // events beyond the current year
  std::size_t overflow_sorted_ = 0;        // descending-sorted prefix length
  std::size_t grow_at_ = 4096;             // rebuild threshold
  /// Dispatch-rate window for advance_year's width adaptation: overflow
  /// holds only the far-scheduled events, but each one typically spawns
  /// a chain of near-term events that land directly in the ring, so
  /// sizing days by overflow count alone leaves them overcrowded.
  double year_mark_time_ = 0.0;
  std::uint64_t year_mark_executed_ = 0;

  // --- callback slots ------------------------------------------------------
  std::vector<std::uint32_t> free_slots_;  // LIFO: the warmest slot first
  struct CallbackChunk;                    // stable storage: never moves
  std::vector<std::unique_ptr<CallbackChunk>> chunks_;
};

}  // namespace dmr::sim
