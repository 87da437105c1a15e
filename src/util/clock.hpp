// Wall-clock helper shared by everything that measures real elapsed
// time (resize spawns, buffer redistribution, benches).
//
// This is the project's ONE sanctioned steady_clock read outside the
// obs:: layer: everything that must time real work calls wall_seconds()
// so dmr_lint's wall-clock rule keeps ad-hoc clock reads out of
// simulation code (simulated time comes from sim::Engine::now()).
#pragma once

#include <chrono>

namespace dmr::util {

/// Seconds on a monotonic clock; differences are wall durations.
inline double wall_seconds() {
  return std::chrono::duration<double>(
             // dmr-lint: allow(wall-clock)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace dmr::util
