// Command-line configuration: "key=value" arguments and the checked
// number parsers every binary's options go through.  (The paper's
// runtime knobs, such as NANOX_SCHED_PERIOD, are plain constructor or
// config arguments here; nothing reads the environment, which
// dmr_lint's `environment` rule enforces.)
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace dmr::util {

/// Parse "key=value" pairs (used by example binaries for CLI options).
std::optional<std::pair<std::string, std::string>> parse_key_value(
    std::string_view arg);

// Command-line numbers.  Each parser accepts only the whole text as one
// plain decimal value in range; anything else (a sign where none is
// allowed, trailing characters, NaN or infinity, a value the type cannot
// hold) is rejected, never wrapped or truncated: the error names `name`
// on stderr and the process exits with status 2.

/// A count: an integer in [min, INT_MAX] (min >= 0), no sign.
int parse_count(const char* text, const char* name, int min = 1);

/// An unsigned 64-bit integer in [0, max] (seeds, job ids), no sign.
std::uint64_t parse_u64(
    const char* text, const char* name,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A finite real number in [lo, hi].
double parse_real(const char* text, const char* name, double lo, double hi);

/// The value of a "NAME=VALUE" argument, or nullptr when `arg` is not
/// "NAME=...".
const char* arg_value(const char* arg, const char* name);

/// The "NAME=N" form of parse_count: false when `arg` is not "NAME=...",
/// otherwise the count is stored in `out`.
bool parse_count_arg(const char* arg, const char* name, int& out,
                     int min = 1);

}  // namespace dmr::util
