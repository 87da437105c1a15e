// Real-mode malleable execution: the application-side half of the API.
//
// Pulls in everything a real (threaded-rank) malleable application
// needs: the process universe and communicators, the AppState base
// class that registers the application's buffers, the iterate -> check
// -> (spawn + offload + retire) loop of Listings 2-3, and the block
// distribution arithmetic.
#pragma once

#include "dmr/reconfig_point.hpp"  // IWYU pragma: export
#include "dmr/session.hpp"         // IWYU pragma: export
#include "dmr/types.hpp"           // IWYU pragma: export
#include "rt/app_state.hpp"        // IWYU pragma: export
#include "rt/malleable_app.hpp"    // IWYU pragma: export
#include "rt/redistribute.hpp"     // IWYU pragma: export
#include "smpi/universe.hpp"       // IWYU pragma: export

namespace dmr {

using rt::AppState;
using rt::BlockDistribution;
using rt::ForcedDecision;
using rt::MalleableConfig;
using rt::ResizeRecord;
using rt::RunReport;
using rt::run_malleable;
using rt::start_malleable;
using rt::StateFactory;

}  // namespace dmr
