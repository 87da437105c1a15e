#include "util/config.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dmr::util {

std::optional<std::pair<std::string, std::string>> parse_key_value(
    std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return std::make_pair(std::string(arg.substr(0, eq)),
                        std::string(arg.substr(eq + 1)));
}

namespace {

/// The whole of `text` as a decimal integer; unsigned, so from_chars
/// refuses any sign.
bool whole_unsigned(const char* text, unsigned long long& value) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  return error == std::errc() && stop == end;
}

}  // namespace

int parse_count(const char* text, const char* name, int min) {
  unsigned long long value = 0;
  if (!whole_unsigned(text, value) ||
      value < static_cast<unsigned long long>(min) ||
      value > static_cast<unsigned long long>(
                  std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "%s: '%s' is not an integer in [%d, %d]\n", name,
                 text, min, std::numeric_limits<int>::max());
    std::exit(2);
  }
  return static_cast<int>(value);
}

std::uint64_t parse_u64(const char* text, const char* name,
                        std::uint64_t max) {
  unsigned long long value = 0;
  if (!whole_unsigned(text, value) || value > max) {
    std::fprintf(stderr, "%s: '%s' is not an integer in [0, %llu]\n", name,
                 text, static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return value;
}

double parse_real(const char* text, const char* name, double lo, double hi) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [stop, error] = std::from_chars(text, end, value);
  // from_chars also parses "inf" and "nan".
  if (error != std::errc() || stop != end || !std::isfinite(value) ||
      value < lo || value > hi) {
    std::fprintf(stderr, "%s: '%s' is not a finite number in [%g, %g]\n",
                 name, text, lo, hi);
    std::exit(2);
  }
  return value;
}

const char* arg_value(const char* arg, const char* name) {
  const std::size_t length = std::strlen(name);
  if (std::strncmp(arg, name, length) != 0 || arg[length] != '=') {
    return nullptr;
  }
  return arg + length + 1;
}

bool parse_count_arg(const char* arg, const char* name, int& out, int min) {
  const char* value = arg_value(arg, name);
  if (value == nullptr) return false;
  out = parse_count(value, name, min);
  return true;
}

}  // namespace dmr::util
