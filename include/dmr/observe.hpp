// Observability: one lifecycle event stream and the observers on it.
//
// Every layer of a run reports what happens as typed obs::Event values
// (see obs::EventKind).  Observers are obs::Sink implementations that
// declare the kinds they want; sim::Engine, rms::Manager,
// fed::Federation and drv::WorkloadDriver each have one attach() point,
// and an unsubscribed kind costs one mask test.
//
// The built-in observers attach through obs::Hooks (DriverConfig::hooks;
// ServiceConfig reaches it via its driver config):
//  - obs::TraceRecorder, rendered by the obs::TraceSink adapter into a
//    Perfetto-loadable Chrome trace-event timeline;
//  - obs::Profiler, a wall-clock self-profile (events/sec, time in
//    schedule passes vs placement, peak RSS) for BENCH_engine.json rows;
//  - obs::WaitAttributor, a per-job wait decomposition (typed
//    BlockReason segments whose seconds sum exactly to the wait) written
//    as the sidecar tools/dmr_explain ingests.
// Counters have one store: rms::Manager::Counters, summed into
// drv::WorkloadMetrics.
#pragma once

#include "dmr/build_info.hpp"  // IWYU pragma: export
#include "obs/attr.hpp"        // IWYU pragma: export
#include "obs/event.hpp"       // IWYU pragma: export
#include "obs/hooks.hpp"       // IWYU pragma: export
#include "obs/profiler.hpp"    // IWYU pragma: export
#include "obs/trace.hpp"       // IWYU pragma: export
#include "obs/trace_sink.hpp"  // IWYU pragma: export
#include "obs/validate.hpp"    // IWYU pragma: export
