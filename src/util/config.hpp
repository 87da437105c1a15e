// Environment-backed configuration knobs.
//
// The paper exposes runtime tunables through environment variables
// (NANOX_SCHED_PERIOD); we follow the same convention under the DMR_
// prefix, with typed accessors and programmatic overrides for tests.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace dmr::util {

/// Read an environment variable; empty optional when unset.
std::optional<std::string> env_string(const std::string& name);

/// Typed lookups with defaults; malformed values fall back to the default.
double env_double(const std::string& name, double fallback);
long long env_int(const std::string& name, long long fallback);
bool env_bool(const std::string& name, bool fallback);

/// Test hook: override a variable for the current process (setenv wrapper).
void set_env(const std::string& name, const std::string& value);
void unset_env(const std::string& name);

/// Parse "key=value" pairs (used by example binaries for CLI options).
std::optional<std::pair<std::string, std::string>> parse_key_value(
    std::string_view arg);

/// Parse a command-line count: a plain decimal integer in [min, INT_MAX]
/// (min >= 0).
/// Anything else (a sign, trailing characters, or a value an int cannot
/// hold) is rejected, never wrapped: the error names `name` on stderr and
/// the process exits with status 2.
int parse_count(const char* text, const char* name, int min = 1);

/// The "NAME=N" form of parse_count: false when `arg` is not "NAME=...",
/// otherwise the count is stored in `out`.
bool parse_count_arg(const char* arg, const char* name, int& out,
                     int min = 1);

}  // namespace dmr::util
