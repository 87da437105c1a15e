#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dmr::sim {

/// Destroying a chunk destroys every closure still armed in it, so live
/// captures (std::functions, strings) are released with the engine.
struct Engine::CallbackChunk {
  detail::InlineCallback slots[kChunkSlots];
};

Engine::Engine() = default;
Engine::~Engine() = default;

detail::InlineCallback& Engine::slot_callback(std::uint32_t slot) {
  return chunks_[slot / kChunkSlots]->slots[slot % kChunkSlots];
}

std::uint32_t Engine::allocate_slot() {
  if (free_slots_.empty()) {
    // A fresh chunk's slots enter the free list highest first, so they
    // are handed out in ascending order.
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<CallbackChunk>());
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      free_slots_.push_back(base + i);
    }
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

std::uint32_t Engine::schedule_slot(SimTime at, Lane lane) {
  // An infinite time would stall advance_year, which can never re-anchor
  // a year at an infinite epoch; NaN is unorderable.
  if (!std::isfinite(at)) {
    throw std::invalid_argument("Engine::schedule_at: non-finite time");
  }
  if (at < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const std::uint32_t slot = allocate_slot();
  insert_entry(Entry{at, pack_lane_seq(lane, next_seq_++), slot});
  return slot;
}

void Engine::insert_entry(const Entry& entry) {
  ++size_;
  const double t = entry.time;
  if (!(t < year_limit_)) {
    overflow_.push_back(entry);
  } else {
    // Any monotone time->day mapping partitions correctly (dispatch
    // order comes from the per-day sort), so the reciprocal multiply is
    // safe even where it rounds differently from the division.
    const std::int64_t day =
        static_cast<std::int64_t>((t - epoch_) * inv_width_);
    if (day <= active_day_) {
      // The day under the cursor (or a backdoor time-travel entry):
      // binary-insert to keep active_ sorted.  The common case — an
      // immediate event at the current instant — is the descending
      // minimum and lands at the back in O(1).
      const auto pos = std::lower_bound(active_.begin(), active_.end(), entry,
                                        EntryAfter{});
      active_.insert(pos, entry);
    } else if (day < static_cast<std::int64_t>(kDays)) {
      buckets_[static_cast<std::size_t>(day)].push_back(entry);
      bucket_bits_[day >> 6] |= std::uint64_t(1) << (day & 63);
    } else {
      // Floating-point edge: t just under year_limit_ can still floor to
      // kDays.
      overflow_.push_back(entry);
    }
  }
  if (size_ >= grow_at_) rebuild();
}

std::int64_t Engine::next_set_day(std::int64_t after) const {
  const std::size_t start =
      after < 0 ? 0 : static_cast<std::size_t>(after) + 1;
  if (start >= kDays) return -1;
  std::size_t word_idx = start >> 6;
  std::uint64_t word =
      bucket_bits_[word_idx] & (~std::uint64_t(0) << (start & 63));
  for (;;) {
    if (word != 0) {
      return static_cast<std::int64_t>(word_idx * 64 +
                                       std::countr_zero(word));
    }
    if (++word_idx >= kDays / 64) return -1;
    word = bucket_bits_[word_idx];
  }
}

bool Engine::settle_front() {
  while (active_.empty()) {
    const std::int64_t day = next_set_day(active_day_);
    if (day >= 0) {
      active_day_ = day;
      bucket_bits_[day >> 6] &= ~(std::uint64_t(1) << (day & 63));
      std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(day)];
      active_.swap(bucket);  // bucket inherits active_'s spare capacity
      std::sort(active_.begin(), active_.end(), EntryAfter{});
      continue;
    }
    if (overflow_.empty()) return false;
    advance_year();
  }
  return true;
}

void Engine::merge_overflow() {
  if (overflow_sorted_ == overflow_.size()) return;
  const auto mid = overflow_.begin() +
                   static_cast<std::ptrdiff_t>(overflow_sorted_);
  std::sort(mid, overflow_.end(), EntryAfter{});
  std::inplace_merge(overflow_.begin(), mid, overflow_.end(), EntryAfter{});
  overflow_sorted_ = overflow_.size();
}

void Engine::advance_year() {
  // The back of the (descending) overflow is the global minimum.
  merge_overflow();

  // Re-anchor the year at the overflow minimum and adapt the day width
  // to the span: aim for a handful of events per day; anything past the
  // new year stays in overflow for the next advance.
  const double t_min = overflow_.back().time;
  const double t_max = overflow_.front().time;
  const double span = t_max - t_min;
  // Expected events over the span: at least the overflow population, but
  // when the engine has been dispatching (steady state) the observed
  // rate counts the ring-resident chains the overflow entries will
  // spawn, which dominate day occupancy.
  double expected = static_cast<double>(overflow_.size());
  const double window = now_ - year_mark_time_;
  if (window > 0.0 && executed_ > year_mark_executed_) {
    const double rate =
        static_cast<double>(executed_ - year_mark_executed_) / window;
    expected = std::max(expected, rate * span);
  }
  year_mark_time_ = now_;
  year_mark_executed_ = executed_;
  double width =
      span > 0.0 && std::isfinite(span) ? span * 4.0 / expected : width_;
  if (!(width > 0.0) || !std::isfinite(width)) width = 1.0;
  // Far from zero a day can be narrower than the spacing of doubles; a
  // year that ends at its own epoch would never take the minimum out of
  // overflow, and the run would spin here.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  width = std::max(width, std::nextafter(t_min, kInf) - t_min);
  width_ = width;
  inv_width_ = 1.0 / width_;
  epoch_ = t_min;
  year_limit_ = epoch_ + width_ * static_cast<double>(kDays);
  active_day_ = -1;

  while (!overflow_.empty()) {
    const Entry entry = overflow_.back();
    if (!(entry.time < year_limit_)) break;
    const std::int64_t day =
        static_cast<std::int64_t>((entry.time - epoch_) * inv_width_);
    if (day >= static_cast<std::int64_t>(kDays)) break;
    overflow_.pop_back();
    buckets_[static_cast<std::size_t>(day)].push_back(entry);
    bucket_bits_[day >> 6] |= std::uint64_t(1) << (day & 63);
  }
  overflow_sorted_ = overflow_.size();
}

void Engine::rebuild() {
  std::vector<Entry> all;
  all.reserve(size_);
  auto take = [&](std::vector<Entry>& source) {
    all.insert(all.end(), source.begin(), source.end());
    source.clear();
  };
  take(active_);
  for (std::size_t day = 0; day < kDays; ++day) take(buckets_[day]);
  for (std::uint64_t& word : bucket_bits_) word = 0;
  take(overflow_);
  overflow_sorted_ = 0;

  // Only called past grow_at_ (>= 4096 events), so `all` is never empty.
  double t_min = all.front().time;
  double t_max = t_min;
  for (const Entry& entry : all) {
    t_min = std::min(t_min, entry.time);
    t_max = std::max(t_max, entry.time);
  }
  const double span = t_max - t_min;
  double width = span > 0.0 && std::isfinite(span)
                     ? span * 4.0 / static_cast<double>(all.size())
                     : width_;
  if (!(width > 0.0) || !std::isfinite(width)) width = 1.0;
  width_ = width;
  inv_width_ = 1.0 / width_;
  epoch_ = t_min;
  year_limit_ = epoch_ + width_ * static_cast<double>(kDays);
  active_day_ = -1;
  for (const Entry& entry : all) {
    if (entry.time < year_limit_) {
      const std::int64_t day =
          static_cast<std::int64_t>((entry.time - epoch_) * inv_width_);
      if (day < static_cast<std::int64_t>(kDays)) {
        buckets_[static_cast<std::size_t>(day)].push_back(entry);
        bucket_bits_[day >> 6] |= std::uint64_t(1) << (day & 63);
        continue;
      }
    }
    overflow_.push_back(entry);
  }
  grow_at_ = std::max<std::size_t>(2 * size_, 4096);
}

bool Engine::step() {
  if (!settle_front()) return false;
  const Entry entry = active_.back();
  active_.pop_back();
  --size_;
  if (sinks_.wants(obs::EventKind::kDispatch)) {
    // Report against the pre-advance clock; next_seq_ is the watermark
    // separating events that coexisted in the queue from ones the
    // upcoming callback will schedule.
    dispatch_.now = entry.time;
    dispatch_.dispatch = {static_cast<int>(entry.lane_seq >> kSeqBits),
                          entry.lane_seq & kSeqMask, now_, next_seq_};
    sinks_.emit(dispatch_);
  }
  now_ = entry.time;
  ++executed_;
  // The slot stays taken until its closure has run and been destroyed,
  // so events the callback schedules never land on it.
  detail::InlineCallback& callback = slot_callback(entry.slot);
  if (!callback.empty()) callback.invoke();
  callback.destroy();
  free_slots_.push_back(entry.slot);
  return true;
}

std::size_t Engine::run(std::size_t limit) {
  std::size_t count = 0;
  while (count < limit && step()) ++count;
  return count;
}

std::size_t Engine::run_until(SimTime t_end) {
  // +inf would leave now() infinite, so every later schedule_after
  // throws; NaN compares false against every event time and runs them
  // all.  Neither is a horizon.
  if (!std::isfinite(t_end)) {
    throw std::invalid_argument("Engine::run_until: non-finite horizon");
  }
  std::size_t count = 0;
  while (settle_front() && !(active_.back().time > t_end)) {
    step();
    ++count;
  }
  if (now_ < t_end) now_ = t_end;
  return count;
}

}  // namespace dmr::sim
