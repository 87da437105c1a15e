// JSON text in and out for the observability layer: one string escaper
// for every writer (traces, attribution sidecars, audit reports, sweep
// lines), and a compact recursive-descent reader shared by the
// consumers: trace validation (obs/validate.cpp), attribution sidecar
// loading (obs/attr.cpp) and the bench-row provenance checker
// (tools/bench_validate.cpp).
//
// The reader's output is only trustworthy if something independent
// re-reads it, so this is a real parser, not a regex scan.  It accepts
// strict JSON over the subset the writers emit: strings hold no raw
// control characters, a \u escape is exactly four hex digits naming an
// ASCII code point, and numbers follow the JSON grammar in full.  Any
// other input is rejected with the first failure's byte offset, never
// read approximately.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dmr::obs {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* field(const std::string& name) const {
    for (const auto& [key, value] : fields) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

/// `text` escaped for use between the quotes of a JSON string: quote,
/// backslash, \n and \t get their short escapes, every other byte
/// below 0x20 a \u00XX one.  parse_json reads the result back to
/// `text`.
std::string json_escape(const std::string& text);

/// Parse one JSON document into `out`; returns false and sets `error`
/// (with a byte offset) on failure.
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

/// The numeric value of `value`, or `fallback` when it is null or not a
/// number.
double json_number(const JsonValue* value, double fallback = 0.0);

/// The largest magnitude up to which every whole JSON number is an
/// exact double: 2^53.
constexpr std::int64_t kJsonExactInteger = std::int64_t{1} << 53;

/// The whole number `value` holds, checked against [min, max] before it
/// is converted: nullopt when it is not a number, has a fraction or lies
/// outside the range, and `fallback` when `value` is null (an absent
/// field; nullopt makes the field required).  Both bounds must lie
/// within +-kJsonExactInteger.
std::optional<std::int64_t> json_integer(
    const JsonValue* value, std::int64_t min, std::int64_t max,
    std::optional<std::int64_t> fallback = std::nullopt);

/// The string value of `value`, or empty when it is null or not a
/// string.
std::string json_string(const JsonValue* value);

}  // namespace dmr::obs
