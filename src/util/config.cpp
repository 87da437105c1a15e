#include "util/config.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dmr::util {

std::optional<std::string> env_string(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

double env_double(const std::string& name, double fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*text, &consumed);
    if (consumed != text->size()) return fallback;
    return value;
  } catch (const std::exception&) {
    return fallback;
  }
}

long long env_int(const std::string& name, long long fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(*text, &consumed);
    if (consumed != text->size()) return fallback;
    return value;
  } catch (const std::exception&) {
    return fallback;
  }
}

bool env_bool(const std::string& name, bool fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  if (*text == "1" || *text == "true" || *text == "yes" || *text == "on") {
    return true;
  }
  if (*text == "0" || *text == "false" || *text == "no" || *text == "off") {
    return false;
  }
  return fallback;
}

void set_env(const std::string& name, const std::string& value) {
  ::setenv(name.c_str(), value.c_str(), 1);
}

void unset_env(const std::string& name) { ::unsetenv(name.c_str()); }

std::optional<std::pair<std::string, std::string>> parse_key_value(
    std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return std::make_pair(std::string(arg.substr(0, eq)),
                        std::string(arg.substr(eq + 1)));
}

int parse_count(const char* text, const char* name, int min) {
  const char* end = text + std::strlen(text);
  unsigned long long value = 0;  // unsigned: from_chars refuses any sign
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end ||
      value < static_cast<unsigned long long>(min) ||
      value > static_cast<unsigned long long>(
                  std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "%s: '%s' is not an integer in [%d, %d]\n", name,
                 text, min, std::numeric_limits<int>::max());
    std::exit(2);
  }
  return static_cast<int>(value);
}

bool parse_count_arg(const char* arg, const char* name, int& out, int min) {
  const std::size_t length = std::strlen(name);
  if (std::strncmp(arg, name, length) != 0 || arg[length] != '=') {
    return false;
  }
  out = parse_count(arg + length + 1, name, min);
  return true;
}

}  // namespace dmr::util
