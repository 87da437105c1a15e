// Correctness analysis: the opt-in runtime invariant auditor.
//
// A chk::Auditor is a sink on the lifecycle event stream
// (<dmr/observe.hpp>): attach it through the same obs::Hooks bundle the
// tracer and profiler use (DriverConfig::hooks.auditor), or with any
// layer's attach(), and it machine-checks these invariants as the run
// executes:
//  - the per-job lifecycle DFA (submitted -> queued -> running ->
//    {reconfiguring <-> running} -> done),
//  - node conservation in rms::Manager / rms::Cluster,
//  - sim::Engine event-queue monotonicity and (time, lane, seq) order,
//  - federation id-range disjointness and routing-stride consistency,
//  - byte conservation per dmr::redist report.
// Violations collect into a structured chk::Report (JSON with the
// BENCH_*.json provenance fields); Options::fail_fast throws
// chk::AuditError at the first one instead.  Detached, every emit site
// it would read is one interest-mask test.
//
// The static half of the chk:: layer is tools/dmr_lint (build target
// `dmr_lint`, ctest `lint`): the project-rule checker that keeps
// determinism hazards out of src/ at commit time.
#pragma once

#include "chk/auditor.hpp"  // IWYU pragma: export
#include "obs/hooks.hpp"    // IWYU pragma: export
