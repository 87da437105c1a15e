// chk::TestBackdoor — deliberate state corruption for auditor tests.
//
// The auditor's failure paths can only be exercised by states the
// production code is specifically designed never to reach, so the
// friend declarations in rms::Manager / rms::Cluster / sim::Engine open
// exactly the mutations tests/test_chk.cpp needs to seed violations:
// flip a node's owner behind the manager's back, hand a job an id
// outside its member's range, push a hand-built out-of-order event.
// Nothing outside the test binary may include this header (dmr_lint has
// no rule for it, but the reviewer checklist does).
#pragma once

#include <utility>

#include "rms/manager.hpp"
#include "sim/engine.hpp"

namespace dmr::chk {

struct TestBackdoor {
  /// Overwrite a node's owner in the cluster table without touching the
  /// idle/draining counters (the two-allocations corruption).
  static void set_node_owner(rms::Manager& manager, int node_id,
                             ::dmr::JobId owner) {
    manager.cluster_.mutable_node(node_id).owner = owner;
  }

  /// Flip a node's draining flag without the counter bookkeeping.
  static void set_node_draining(rms::Manager& manager, int node_id,
                                bool draining) {
    manager.cluster_.draining_.at(static_cast<std::size_t>(node_id)) =
        draining ? 1 : 0;
  }

  /// Corrupt the cluster's cached idle counter.
  static void skew_idle_counter(rms::Manager& manager, int delta) {
    manager.cluster_.idle_count_ += delta;
  }

  /// Append a node id to a job's allocation list (the job now claims a
  /// node the owner table gives to someone else, or to nobody).
  static void claim_node(rms::Manager& manager, ::dmr::JobId job,
                         int node_id) {
    manager.job_mutable(job).nodes.push_back(node_id);
  }

  /// Re-key a job record to `new_id` (seeds a federation id-range
  /// violation when `new_id` lies outside the member's stride range).
  /// The dense job table stays indexed by the original id — only the
  /// record's identity is corrupted, which is what the auditor reads.
  static void rekey_job(rms::Manager& manager, ::dmr::JobId old_id,
                        ::dmr::JobId new_id) {
    manager.job_mutable(old_id).id = new_id;
  }

  /// Push a raw (time, lane, seq) entry into the engine queue, bypassing
  /// schedule_at's monotonicity guard (the time-travel corruption).  The
  /// entry carries a fresh slot with a no-op callback so step() fires it.
  static void push_raw_event(sim::Engine& engine, double time, sim::Lane lane,
                             std::uint64_t seq) {
    const std::uint32_t slot = engine.allocate_slot();
    engine.slot_callback(slot).emplace([] {});
    engine.insert_entry(
        sim::Engine::Entry{time, sim::Engine::pack_lane_seq(lane, seq), slot});
  }
};

}  // namespace dmr::chk
