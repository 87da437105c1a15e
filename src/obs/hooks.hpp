// obs::Hooks — the attach bundle for a driven run's observers.
//
// DriverConfig::hooks (and ServiceConfig through its driver config)
// names up to four observers; drv::WorkloadDriver reads the bundle once
// and attaches each as a sink on the lifecycle event stream
// (obs/event.hpp) — the trace recorder through an obs::TraceSink
// adapter.  Null pointers attach nothing.  The observers are owned by
// the caller and must outlive the run.  Code that owns a layer directly
// (a bare rms::Manager, fed::Federation or sim::Engine) uses that
// layer's attach() instead.
#pragma once

#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace dmr::chk {
class Auditor;
}

namespace dmr::obs {

class WaitAttributor;

struct Hooks {
  TraceRecorder* trace = nullptr;
  Profiler* profiler = nullptr;
  /// Runtime invariant checker (chk::Auditor); attached runs machine-
  /// check lifecycle/conservation/ordering invariants as they execute.
  chk::Auditor* auditor = nullptr;
  /// Wait-time attribution (obs::WaitAttributor); attached runs record a
  /// typed BlockReason at every scheduler decision point and decompose
  /// each job's wait into per-cause seconds that sum to the total.
  WaitAttributor* attr = nullptr;
};

}  // namespace dmr::obs
