// Workload sources: the Feitelson synthetic generator and the SWF
// (Standard Workload Format) trace ingester, plus the shared wl::Workload
// job model both reduce to and its conversion into driver JobPlans.
//
// Typical replay of an archival trace:
//
//   auto trace  = dmr::wl::parse_swf_file("KTH-SP2-1996-2.1-cln.swf");
//   dmr::wl::TraceShaper shaper;
//   shaper.target_nodes = 64;
//   dmr::wl::ShapeReport report;
//   auto workload = shaper.shape(trace, &report);   // surface report!
//   for (auto& plan : dmr::drv::plans_from_workload(workload, {}))
//     driver.submit_at(std::move(plan));
#pragma once

#include "drv/plan.hpp"      // IWYU pragma: export
#include "wl/feitelson.hpp"  // IWYU pragma: export
#include "wl/swf.hpp"        // IWYU pragma: export
#include "wl/workload.hpp"   // IWYU pragma: export

namespace dmr {

using wl::Malleability;
using wl::MalleabilityConfig;
using wl::ShapeReport;
using wl::SwfParseError;
using wl::SwfTrace;
using wl::TraceShaper;
using wl::Workload;
using wl::WorkloadJob;

}  // namespace dmr
