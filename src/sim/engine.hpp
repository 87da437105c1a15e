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
// Archive-scale internals (100k-job SWF replays are millions of events):
//
//  - The event list is a two-level calendar: a ring of day buckets
//    covering one "year" of simulated time plus an overflow list for
//    events beyond it.  The day under the cursor is drained through a
//    sorted `active_` vector (descending, popped from the back); future
//    days hold unsorted entries that are sorted once, when their day
//    arrives.  Total order is exactly the old (time, lane, seq) heap
//    order — the layout is invisible to outcomes.
//
//  - Event identity is a generation-tagged slot: EventId packs
//    (slot index, generation), so schedule/cancel/pending/dispatch are
//    array lookups with zero hashing.  Cancelling reclaims the slot and
//    its callback storage eagerly; a stale 24-byte queue entry remains
//    until its day is reached or a sweep collects it.
//
//  - Callbacks live in a small-buffer inline type (detail::ArenaCallback)
//    inside stable slot chunks; oversized captures go to a slab arena.
//    No per-event std::function heap churn on the hot path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
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
using EventId = std::uint64_t;

constexpr EventId kInvalidEvent = 0;

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

/// Slab arena for callback captures too large for ArenaCallback's inline
/// buffer: size-class free lists carved from 64 KiB blocks.  Freed chunks
/// are recycled, blocks are never returned until the arena dies, and
/// anything beyond the largest class falls through to operator new.
class CallbackArena {
 public:
  CallbackArena() = default;
  CallbackArena(const CallbackArena&) = delete;
  CallbackArena& operator=(const CallbackArena&) = delete;

  void* allocate(std::size_t size);
  void deallocate(void* p, std::size_t size);

 private:
  static constexpr std::size_t kBlockBytes = std::size_t(64) << 10;
  static constexpr int kClasses = 5;  // 64, 128, 256, 512, 1024 bytes

  static int class_of(std::size_t size) {
    std::size_t bytes = 64;
    for (int c = 0; c < kClasses; ++c, bytes <<= 1) {
      if (size <= bytes) return c;
    }
    return -1;
  }

  struct FreeNode {
    FreeNode* next;
  };
  FreeNode* free_[kClasses] = {};
  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
  unsigned char* cursor_ = nullptr;
  std::size_t cursor_left_ = 0;
};

/// Move-free small-buffer callable.  Callables up to kInlineBytes are
/// constructed in place; larger captures live in the arena.  The object
/// never moves (slots sit in stable chunks), so the callable needs no
/// move constructor and no virtual dispatch — two function pointers.
class ArenaCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  ArenaCallback() = default;
  ArenaCallback(const ArenaCallback&) = delete;
  ArenaCallback& operator=(const ArenaCallback&) = delete;

  bool empty() const { return invoke_ == nullptr; }

  template <typename F>
  void emplace(F&& fn, CallbackArena& arena) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>,
                  "ArenaCallback: callable must be invocable with ()");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "ArenaCallback: over-aligned captures unsupported");
    void* target;
    if constexpr (sizeof(Fn) <= kInlineBytes) {
      heap_ = nullptr;
      heap_bytes_ = 0;
      target = buf_;
    } else {
      heap_ = arena.allocate(sizeof(Fn));
      heap_bytes_ = static_cast<std::uint32_t>(sizeof(Fn));
      target = heap_;
    }
    ::new (target) Fn(std::forward<F>(fn));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
  }

  void invoke() { invoke_(heap_ != nullptr ? heap_ : buf_); }

  void destroy(CallbackArena& arena) {
    if (invoke_ == nullptr) return;
    destroy_(heap_ != nullptr ? heap_ : buf_);
    if (heap_ != nullptr) {
      arena.deallocate(heap_, heap_bytes_);
      heap_ = nullptr;
    }
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  void* heap_ = nullptr;
  std::uint32_t heap_bytes_ = 0;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace detail

class Engine {
 public:
  /// Historical alias; schedule_at accepts any void() callable directly
  /// (a raw lambda avoids the std::function indirection entirely).
  using Callback = std::function<void()>;

  Engine();  // out of line: CallbackChunk is incomplete here
  ~Engine();
  /// Pinned: slot chunks hold live closures that may capture `this`.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `at` (>= now).  Returns a
  /// handle usable with cancel().
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn, Lane lane = Lane::Normal) {
    const EventId id = schedule_slot(at, lane);
    slot_callback(slot_of(id)).emplace(std::forward<F>(fn), arena_);
    return id;
  }

  /// Schedule `fn` after a virtual delay (>= 0).
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn, Lane lane = Lane::Normal) {
    if (delay < 0.0) {
      throw std::invalid_argument("Engine::schedule_after: negative delay");
    }
    return schedule_at(now_ + delay, std::forward<F>(fn), lane);
  }

  /// Cancel a pending event.  Returns false when the event already fired,
  /// was cancelled, or never existed.  The slot and its callback storage
  /// are reclaimed immediately (the calendar entry goes stale and is
  /// collected lazily or by a sweep).
  bool cancel(EventId id);

  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    const std::uint32_t gen = gen_of(id);
    return gen != 0 && slot < gens_.size() && gens_[slot] == gen;
  }

  /// Number of pending (live, uncancelled) events — exact.  Cancelled
  /// entries awaiting collection are never counted.
  std::size_t queued() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Calendar entries currently held, *including* stale (cancelled)
  /// ones — the structure's memory-visible footprint, for tests and
  /// telemetry.  queued() <= queue_footprint().
  std::size_t queue_footprint() const { return size_; }

  /// Run a single event; returns false when no events remain.
  bool step();

  /// Run until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = std::numeric_limits<std::size_t>::max());

  /// Run events with time <= t_end, then advance the clock to t_end.
  /// A stop request (pre-run or mid-run) freezes the clock where it is
  /// instead of advancing it to t_end.
  std::size_t run_until(SimTime t_end);

  /// Request that run()/run_until() return after the current event
  /// completes.  A stop issued *before* the call halts it before the
  /// first event fires.  The request is consumed when the run returns,
  /// so a subsequent run proceeds normally.
  void stop() { stop_requested_ = true; }

  /// True when a stop() has been requested and not yet consumed by a run.
  bool stop_pending() const { return stop_requested_; }

  /// Events executed so far (monotone counter, for tests/telemetry).
  std::uint64_t executed() const { return executed_; }

  /// Subscribe `sink` to obs::EventKind::kDispatch, reported as each
  /// event leaves the queue (unsubscribed, one mask test per event).
  void attach(obs::Sink& sink) { sinks_.attach(sink); }
  void detach(obs::Sink& sink) { sinks_.detach(sink); }

 private:
  /// Test-only state corruption for auditor failure-path tests.
  friend struct ::dmr::chk::TestBackdoor;

  /// One queued occurrence of an event: 24 bytes, trivially copyable.
  /// (lane, seq) are packed so one integer compare gives their order.
  struct Entry {
    SimTime time;
    std::uint64_t lane_seq;
    std::uint32_t slot;
    std::uint32_t gen;
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
  static constexpr std::size_t kSweepFloor = 1024;

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint64_t pack_lane_seq(Lane lane, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(lane) << kSeqBits) | seq;
  }

  /// Guarded entry insertion + slot allocation; the callback is emplaced
  /// by the schedule_at template after this returns.
  EventId schedule_slot(SimTime at, Lane lane);
  std::uint32_t allocate_slot();
  detail::ArenaCallback& slot_callback(std::uint32_t slot);
  /// Destroy the callback, bump the generation and free the slot.
  void release_slot(std::uint32_t slot);

  void insert_entry(const Entry& entry);
  /// Ensure active_.back() is the live global minimum; false when the
  /// calendar is empty.  Discards stale entries it passes over.
  bool settle_front();
  std::int64_t next_set_day(std::int64_t after) const;
  /// Ring empty: re-anchor the year at the overflow minimum (adapting
  /// the bucket width to the overflow span) and re-bucket its entries.
  void advance_year();
  /// Fold the unsorted overflow appendix into the sorted prefix.
  void merge_overflow();
  /// Re-anchor and re-bucket everything (width adaptation on growth).
  void rebuild();
  /// Drop stale entries from every level (triggered when cancels pile up
  /// faster than their days are reached).
  void sweep_stale();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::size_t size_ = 0;   // calendar entries, stale included
  std::size_t stale_ = 0;  // cancelled entries not yet collected
  bool stop_requested_ = false;
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

  // --- generation-tagged slots ---------------------------------------------
  std::vector<std::uint32_t> gens_;        // current generation per slot
  std::vector<std::uint32_t> free_slots_;
  struct CallbackChunk;                    // stable storage: never moves
  std::vector<std::unique_ptr<CallbackChunk>> chunks_;
  detail::CallbackArena arena_;
};

/// Repeating timer helper: fires `fn` every `period` until stop() or the
/// predicate returns false.  Used for the runtime's periodic RMS checks.
/// Tick k fires at first_fire + k*period (closed form — repeated
/// `now + period` addition would accumulate rounding drift over long
/// horizons).
class PeriodicTask {
 public:
  PeriodicTask(Engine& engine, SimTime period, std::function<bool()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start(SimTime first_delay);
  void stop();
  bool running() const { return event_ != kInvalidEvent; }

 private:
  void fire();
  Engine& engine_;
  SimTime period_;
  std::function<bool()> fn_;
  EventId event_ = kInvalidEvent;
  SimTime base_ = 0.0;       // first-fire instant of the current start()
  std::uint64_t ticks_ = 0;  // completed fires since start()
};

}  // namespace dmr::sim
