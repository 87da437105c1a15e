// obs::TraceSink — renders the lifecycle event stream into an
// obs::TraceRecorder timeline, owning every decision about what it shows:
//  - tracks: process 0 is the federation (placements, global counters);
//    member c is process c+1, "cluster <name>", with a "schedule" (tid 0)
//    and a "reconfig" (tid 1) thread;
//  - user jobs as async spans with start / expand / shrink instants
//    (resizer pseudo-jobs are not drawn), drains and modeled
//    redistributions as async spans;
//  - schedule passes and negotiate/apply phases as "X" spans at their
//    simulated instant, lasting the wall time from the *Begin event;
//  - counter tracks: queue depth and reconfigurations per member;
//    allocated nodes, running / completed jobs, placements, ring depth
//    and utilization on the federation track.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "obs/event.hpp"
#include "obs/trace.hpp"

namespace dmr::obs {

class TraceSink final : public Sink {
 public:
  /// Names the federation's tracks in `trace` right away.
  TraceSink(TraceRecorder& trace, const fed::Federation& federation);

  Interest interest() const override;
  void on_event(const Event& event) override;

 private:
  TraceRecorder& trace_;
  const fed::Federation& federation_;
  /// Jobs with an open drain span, so a finish or an abort only closes
  /// spans this adapter opened.
  std::set<JobId> open_drain_spans_;
  /// Pending user jobs per member (the "queue depth" counter).
  std::vector<int> pending_;
  long long completed_ = 0;
  // Wall-clock stamps of the open *Begin events (a negotiation and an
  // application never overlap), and what the open schedule call did.
  double pass_start_ = 0.0;
  double reconfig_start_ = 0.0;
  long long passes_before_ = 0;
  int pass_started_ = 0;
};

}  // namespace dmr::obs
