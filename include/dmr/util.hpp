// Reporting and configuration utilities used by the examples and the
// figure/table reproduction benches: ASCII charts and tables, summary
// statistics, deterministic RNG, key=value arguments and the checked
// command-line number parsers.
#pragma once

#include "util/chart.hpp"   // IWYU pragma: export
#include "util/clock.hpp"   // IWYU pragma: export
#include "util/config.hpp"  // IWYU pragma: export
#include "util/rng.hpp"     // IWYU pragma: export
#include "util/stats.hpp"   // IWYU pragma: export
#include "util/table.hpp"   // IWYU pragma: export
