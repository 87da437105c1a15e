#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dmr::obs {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parse one document; `error` is set (with an offset) on failure.
  bool parse(JsonValue& out, std::string& error) {
    skip_space();
    if (!parse_value(out, error)) return false;
    skip_space();
    if (pos_ != text_.size()) {
      error = fail("trailing content after the document");
      return false;
    }
    return true;
  }

 private:
  std::string fail(const std::string& what) const {
    return what + " at offset " + std::to_string(pos_);
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// Skip a run of decimal digits; returns how many.
  std::size_t skip_digits() {
    const std::size_t first = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ - first;
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= text_.size()) {
      error = fail("unexpected end of document");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.text, error);
    }
    if (c == 't' || c == 'f') return parse_literal(out, error);
    if (c == 'n') return parse_null(out, error);
    return parse_number(out, error);
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        error = fail("expected an object key");
        return false;
      }
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error = fail("expected ':' after key '" + key + "'");
        return false;
      }
      ++pos_;
      skip_space();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_space();
      if (pos_ >= text_.size()) {
        error = fail("unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      error = fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_space();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.items.push_back(std::move(value));
      skip_space();
      if (pos_ >= text_.size()) {
        error = fail("unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      error = fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parse_string(std::string& out, std::string& error) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // Exactly four hex digits naming an ASCII code point: the
            // writers escape control bytes only.
            const char* digits = text_.data() + pos_ + 2;
            const char* end =
                text_.data() + std::min(text_.size(), pos_ + 6);
            unsigned code = 0;
            const auto [stop, bad] = std::from_chars(digits, end, code, 16);
            if (bad != std::errc() || stop != digits + 4) {
              error = fail("\\u escape without four hex digits");
              return false;
            }
            if (code > 0x7f) {
              error = fail("\\u escape beyond ASCII");
              return false;
            }
            out.push_back(static_cast<char>(code));
            pos_ += 4;
            break;
          }
          default:
            error = fail("bad escape character");
            return false;
        }
        pos_ += 2;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        error = fail("raw control character in a string");
        return false;
      }
      out.push_back(c);
      ++pos_;
    }
    error = fail("unterminated string");
    return false;
  }

  bool parse_literal(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    error = fail("bad literal");
    return false;
  }

  bool parse_null(JsonValue& out, std::string& error) {
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::Kind::Null;
      pos_ += 4;
      return true;
    }
    error = fail("bad literal");
    return false;
  }

  /// The JSON number grammar in full:
  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = skip_digits();
    if (pos_ == start) {
      error = fail("expected a value");
      return false;
    }
    bool ok = int_digits > 0 && !(int_digits > 1 && text_[int_start] == '0');
    if (ok && at('.')) {
      ++pos_;
      ok = skip_digits() > 0;
    }
    if (ok && (at('e') || at('E'))) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      ok = skip_digits() > 0;
    }
    if (!ok) {
      error = fail("bad number");
      return false;
    }
    const char* end = text_.data() + pos_;
    const auto [stop, bad] =
        std::from_chars(text_.data() + start, end, out.number);
    if (bad != std::errc() || stop != end) {
      error = fail("number out of range");
      return false;
    }
    out.kind = JsonValue::Kind::Number;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
  return JsonParser(text).parse(out, error);
}

double json_number(const JsonValue* value, double fallback) {
  return value != nullptr && value->kind == JsonValue::Kind::Number
             ? value->number
             : fallback;
}

std::optional<std::int64_t> json_integer(const JsonValue* value,
                                         std::int64_t min, std::int64_t max,
                                         std::optional<std::int64_t> fallback) {
  if (value == nullptr) return fallback;
  if (value->kind != JsonValue::Kind::Number) return std::nullopt;
  const double number = value->number;
  // Range and wholeness first: converting a value outside the integer
  // type is undefined, and a fraction would be cut off silently.
  if (!(number >= static_cast<double>(min) &&
        number <= static_cast<double>(max)) ||
      number != std::trunc(number)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(number);
}

std::string json_string(const JsonValue* value) {
  return value != nullptr && value->kind == JsonValue::Kind::String
             ? value->text
             : std::string();
}

}  // namespace dmr::obs
