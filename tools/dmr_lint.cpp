// dmr_lint — the project-rule static checker.
//
// A real (if small) lexer, not a grep: comments, string literals, char
// literals and raw strings are stripped into their own streams, so rules
// match code tokens only and suppression/expectation directives match
// comments only.  The checker walks src/ include/ bench/ examples/
// tools/ (minus its lint fixtures) and tests/, and enforces the
// project's determinism and discipline rules:
//
//   wall-clock       no std::rand/srand, time(nullptr), system_clock or
//                    steady_clock in shipped code (src/ except src/obs/,
//                    include/, examples/).  Wall clocks belong to the
//                    observability layer and the benches; simulation
//                    code uses sim::Engine::now() and seeded RNG.
//   unordered-json   no iteration over unordered_map/unordered_set in a
//                    function that writes JSON or trace output (the
//                    iteration order leaks into the bytes and breaks
//                    digest determinism).
//   naked-lock       no bare mutex.lock(); use std::lock_guard /
//                    std::unique_lock / std::scoped_lock (calling
//                    .lock() on a declared unique_lock is fine).
//   float-equal      no float/double literal in EXPECT_EQ/ASSERT_EQ/
//                    EXPECT_NE/ASSERT_NE in tests/; use
//                    EXPECT_DOUBLE_EQ or EXPECT_NEAR.
//   todo-issue       every to-do marker carries an issue tag, written
//                    TODO(#123) or FIXME(#123).
//   unchecked-number no atoi/atol/atoll/atof, sscanf, strto* or std::sto*
//                    call outside tests/: they wrap, truncate or throw
//                    instead of rejecting.  CLI numbers go through
//                    util::parse_count, parse_u64 and parse_real; every
//                    reader in src/ (snapshots, JSON, SWF, member mixes)
//                    uses std::from_chars with an end check.
//   environment      no getenv/secure_getenv call and no use of environ
//                    outside tests/: the program reads no environment
//                    variable.  Every setting (the paper's
//                    NANOX_SCHED_PERIOD included) is an argument or a
//                    config field, so a run is reproduced from its
//                    command line alone.
//
// Any rule is suppressible at a site with a `dmr-lint:` comment holding
// `allow(<rule>)`, on the same or the preceding line.  A suppression
// that suppresses nothing is itself an error (unused-suppression), so
// stale allowances cannot accumulate.
//
// Modes:
//   dmr_lint --root DIR        lint the repository rooted at DIR
//   dmr_lint --fixtures DIR    self-test against fixture files whose
//                              `// expect(<rule>)` comments declare the
//                              diagnostics that must fire (a fixture may
//                              scope itself with
//                              `// dmr-lint-fixture: path=src/x.cpp`)
// Exit status: 0 clean, 1 violations/mismatches, 2 usage or I/O error.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// --- lexer -------------------------------------------------------------------

struct Token {
  enum class Kind { Ident, Number, String, Punct };
  Kind kind;
  std::string text;
  int line;
};

struct Comment {
  int line;  // line the comment starts on
  std::string text;
};

struct Scan {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Scan scan_source(const std::string& src) {
  Scan out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t end = src.find('\n', i);
      const std::size_t stop = end == std::string::npos ? n : end;
      out.comments.push_back(Comment{line, src.substr(i + 2, stop - i - 2)});
      i = stop;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        ++j;
      }
      out.comments.push_back(Comment{start_line, src.substr(i + 2, j - i - 2)});
      i = j + 2 <= n ? j + 2 : n;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, j);
      const std::size_t stop = end == std::string::npos ? n : end;
      std::string body = src.substr(j + 1, stop - j - 1);
      out.tokens.push_back(Token{Token::Kind::String, body, line});
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = stop + closer.size();
      continue;
    }
    // String / char literal with escapes.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      std::string body;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) {
          body += src[j];
          body += src[j + 1];
          j += 2;
          continue;
        }
        if (src[j] == '\n') ++line;  // unterminated; keep line counts sane
        body += src[j++];
      }
      if (quote == '"') {
        out.tokens.push_back(Token{Token::Kind::String, body, line});
      }
      i = j + 1 <= n ? j + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back(Token{Token::Kind::Ident, src.substr(i, j - i),
                                 line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Numbers, including 1.5e-3, 0x1F, 1'000, suffixes and the
      // digit-leading float forms; a trailing [eEpP][+-] exponent sign
      // is part of the literal.
      std::size_t j = i;
      while (j < n &&
             (ident_char(src[j]) || src[j] == '.' || src[j] == '\'' ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back(Token{Token::Kind::Number, src.substr(i, j - i),
                                 line});
      i = j;
      continue;
    }
    // Multi-char operators the rules care about; everything else is a
    // single punctuation character.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back(Token{Token::Kind::Punct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back(Token{Token::Kind::Punct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back(Token{Token::Kind::Punct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// --- diagnostics -------------------------------------------------------------

struct Diagnostic {
  std::string rule;
  int line;
  std::string message;
};

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {
      "wall-clock", "unordered-json",   "naked-lock",         "float-equal",
      "todo-issue", "unchecked-number", "unused-suppression", "environment",
  };
  return rules;
}

/// Parse `marker(rule[, rule...])` directives out of a comment.
std::vector<std::string> parse_rule_list(const std::string& text,
                                         const std::string& marker) {
  std::vector<std::string> rules;
  std::size_t pos = 0;
  while ((pos = text.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    const std::size_t close = text.find(')', pos);
    if (close == std::string::npos) break;
    std::string inner = text.substr(pos, close - pos);
    std::stringstream parts(inner);
    std::string rule;
    while (std::getline(parts, rule, ',')) {
      const std::size_t a = rule.find_first_not_of(" \t");
      const std::size_t b = rule.find_last_not_of(" \t");
      if (a != std::string::npos) rules.push_back(rule.substr(a, b - a + 1));
    }
    pos = close + 1;
  }
  return rules;
}

// --- rule helpers ------------------------------------------------------------

bool under(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool float_literal(const Token& tok) {
  if (tok.kind != Token::Kind::Number) return false;
  const std::string& t = tok.text;
  if (t.size() > 1 && (t[1] == 'x' || t[1] == 'X')) return false;  // hex
  if (t.find('.') != std::string::npos) return true;
  if (t.find('e') != std::string::npos || t.find('E') != std::string::npos) {
    return true;
  }
  const char last = t.back();
  return last == 'f' || last == 'F';
}

/// Names declared in this file as `unordered_map`/`unordered_set` (or a
/// guard type, when those names are passed) — the token right after the
/// closing `>` of the template argument list, or right after the type
/// for CTAD declarations.
std::set<std::string> declared_names(const std::vector<Token>& toks,
                                     const std::set<std::string>& types) {
  std::set<std::string> names;
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (toks[i].kind != Token::Kind::Ident || types.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < n && toks[j].kind == Token::Kind::Punct && toks[j].text == "<") {
      int depth = 1;
      ++j;
      while (j < n && depth > 0) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") --depth;
        ++j;
      }
    }
    while (j < n && (toks[j].text == "*" || toks[j].text == "&" ||
                     toks[j].text == "const")) {
      ++j;
    }
    if (j < n && toks[j].kind == Token::Kind::Ident) {
      // `type<...> name` declares; `type<...>::iterator` or a call does
      // not reach here (:: and ( are punct).
      if (!(j + 1 < n && toks[j + 1].text == "(")) names.insert(toks[j].text);
      // CTAD guards (`std::unique_lock lk(m)`) still declare `lk`.
      if (j + 1 < n && toks[j + 1].text == "(" &&
          (types.count("unique_lock") != 0 || types.count("lock_guard") != 0)) {
        names.insert(toks[j].text);
      }
    }
  }
  return names;
}

/// One function-ish region: `name ( ... ) [stuff] { body }`.
struct Region {
  std::string name;
  std::size_t body_begin;  // index of `{`
  std::size_t body_end;    // index of matching `}`
};

std::vector<Region> scan_regions(const std::vector<Token>& toks) {
  static const std::set<std::string> control = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "static_assert", "decltype", "alignof"};
  std::vector<Region> regions;
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != Token::Kind::Ident || control.count(toks[i].text) != 0) {
      continue;
    }
    if (toks[i + 1].text != "(") continue;
    // Match the parameter list.
    std::size_t j = i + 1;
    int depth = 0;
    while (j < n) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) break;
      ++j;
    }
    if (j >= n) break;
    // Skip qualifiers / trailing return / ctor init list up to `{`, `;`
    // or something that rules the region out.
    std::size_t k = j + 1;
    depth = 0;
    bool found = false;
    while (k < n) {
      const std::string& t = toks[k].text;
      if (depth == 0 && t == "{") {
        found = true;
        break;
      }
      if (depth == 0 && (t == ";" || t == "}")) break;
      if (t == "(") ++depth;
      if (t == ")") --depth;
      if (depth < 0) break;
      ++k;
    }
    if (!found) continue;
    // Match the body.
    std::size_t m = k;
    depth = 0;
    while (m < n) {
      if (toks[m].text == "{") ++depth;
      if (toks[m].text == "}" && --depth == 0) break;
      ++m;
    }
    if (m >= n) break;
    regions.push_back(Region{toks[i].text, k, m});
    i = k;  // inner lambdas stay part of this region; continue inside
  }
  return regions;
}

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

// --- the rules ---------------------------------------------------------------

void rule_wall_clock(const std::string& path, const std::vector<Token>& toks,
                     std::vector<Diagnostic>& out) {
  // Allowlist: the observability layer owns the project's wall-clock
  // helpers (util::wall_seconds, provenance timestamps), benches time
  // real work, and tests may time their own assertions.
  const bool in_scope = (under(path, "src/") && !under(path, "src/obs/")) ||
                        under(path, "include/") || under(path, "examples/");
  if (!in_scope) return;
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    const std::string& t = toks[i].text;
    if (t == "steady_clock" || t == "system_clock") {
      out.push_back(Diagnostic{"wall-clock", toks[i].line,
                               "std::chrono::" + t +
                                   " in simulation code; use the sim clock "
                                   "or the obs:: layer"});
      continue;
    }
    if ((t == "rand" || t == "srand") && i + 1 < n &&
        toks[i + 1].text == "(") {
      out.push_back(Diagnostic{"wall-clock", toks[i].line,
                               t + "() is unseeded global state; use a "
                                   "seeded std::mt19937"});
      continue;
    }
    if (t == "time" && i + 2 < n && toks[i + 1].text == "(" &&
        (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL" ||
         toks[i + 2].text == "0")) {
      out.push_back(Diagnostic{"wall-clock", toks[i].line,
                               "time(" + toks[i + 2].text +
                                   ") reads the wall clock; simulation code "
                                   "must stay deterministic"});
    }
  }
}

void rule_unordered_json(const std::vector<Token>& toks,
                         std::vector<Diagnostic>& out) {
  const std::set<std::string> containers = {"unordered_map", "unordered_set"};
  const std::set<std::string> names = declared_names(toks, containers);
  if (names.empty()) return;
  for (const Region& region : scan_regions(toks)) {
    // A JSON/trace writer: the name says json, or a literal in the body
    // carries a JSON key signature.
    bool writer = lowercase(region.name).find("json") != std::string::npos;
    for (std::size_t i = region.body_begin; !writer && i <= region.body_end;
         ++i) {
      if (toks[i].kind != Token::Kind::String) continue;
      const std::string& s = toks[i].text;
      if (s.find("\\\":") != std::string::npos ||
          s.find("{\\\"") != std::string::npos ||
          s.find("\":") != std::string::npos) {
        writer = true;
      }
    }
    if (!writer) continue;
    for (std::size_t i = region.body_begin; i <= region.body_end; ++i) {
      if (toks[i].kind != Token::Kind::Ident || toks[i].text != "for") continue;
      if (i + 1 > region.body_end || toks[i + 1].text != "(") continue;
      std::size_t j = i + 1;
      int depth = 0;
      std::size_t colon = 0;
      while (j <= region.body_end) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
        if (depth == 1 && toks[j].text == ":" && colon == 0) colon = j;
        ++j;
      }
      if (j > region.body_end) break;
      bool iterates = false;
      if (colon != 0) {  // range-for: any unordered name after the colon
        for (std::size_t k = colon + 1; k < j && !iterates; ++k) {
          if (toks[k].kind == Token::Kind::Ident &&
              names.count(toks[k].text) != 0) {
            iterates = true;
          }
        }
      } else {  // classic for: unordered.begin() inside the header
        for (std::size_t k = i + 2; k + 2 < j && !iterates; ++k) {
          if (toks[k].kind == Token::Kind::Ident &&
              names.count(toks[k].text) != 0 &&
              (toks[k + 1].text == "." || toks[k + 1].text == "->") &&
              toks[k + 2].text == "begin") {
            iterates = true;
          }
        }
      }
      if (iterates) {
        out.push_back(
            Diagnostic{"unordered-json", toks[i].line,
                       "iteration over an unordered container in '" +
                           region.name +
                           "', which writes JSON/trace output; iteration "
                           "order leaks into the bytes — use a sorted "
                           "container or sort the keys first"});
      }
    }
  }
}

void rule_naked_lock(const std::vector<Token>& toks,
                     std::vector<Diagnostic>& out) {
  const std::set<std::string> guards = {"unique_lock", "lock_guard",
                                        "scoped_lock", "shared_lock"};
  const std::set<std::string> guard_names = declared_names(toks, guards);
  const std::size_t n = toks.size();
  for (std::size_t i = 1; i + 3 < n; ++i) {
    if (toks[i].kind != Token::Kind::Punct ||
        (toks[i].text != "." && toks[i].text != "->")) {
      continue;
    }
    if (toks[i + 1].text != "lock" || toks[i + 2].text != "(" ||
        toks[i + 3].text != ")") {
      continue;
    }
    const Token& receiver = toks[i - 1];
    if (receiver.kind == Token::Kind::Ident &&
        guard_names.count(receiver.text) != 0) {
      continue;  // re-locking a declared guard object is fine
    }
    out.push_back(Diagnostic{
        "naked-lock", toks[i + 1].line,
        "bare " + (receiver.kind == Token::Kind::Ident ? receiver.text
                                                       : std::string("?")) +
            ".lock(); use std::lock_guard / std::unique_lock / "
            "std::scoped_lock so the unlock is exception-safe"});
  }
}

void rule_float_equal(const std::string& path, const std::vector<Token>& toks,
                      std::vector<Diagnostic>& out) {
  if (!under(path, "tests/")) return;
  const std::set<std::string> macros = {"EXPECT_EQ", "ASSERT_EQ", "EXPECT_NE",
                                        "ASSERT_NE"};
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != Token::Kind::Ident || macros.count(toks[i].text) == 0 ||
        toks[i + 1].text != "(") {
      continue;
    }
    // Split the macro arguments at top-level commas.
    std::size_t j = i + 1;
    int depth = 0;
    std::vector<std::pair<std::size_t, std::size_t>> args;  // [begin, end)
    std::size_t arg_begin = i + 2;
    while (j < n) {
      if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{") {
        ++depth;
      }
      if (toks[j].text == ")" || toks[j].text == "]" || toks[j].text == "}") {
        --depth;
        if (depth == 0) {
          args.emplace_back(arg_begin, j);
          break;
        }
      }
      if (depth == 1 && toks[j].text == ",") {
        args.emplace_back(arg_begin, j);
        arg_begin = j + 1;
      }
      ++j;
    }
    for (const auto& [begin, end] : args) {
      const std::size_t len = end - begin;
      const bool bare_float = len == 1 && float_literal(toks[begin]);
      const bool negated_float = len == 2 && toks[begin].text == "-" &&
                                 float_literal(toks[begin + 1]);
      if (bare_float || negated_float) {
        out.push_back(Diagnostic{
            "float-equal", toks[begin].line,
            toks[i].text + " against the float literal " +
                toks[end - 1].text +
                "; use EXPECT_DOUBLE_EQ or EXPECT_NEAR"});
        break;  // one diagnostic per macro call
      }
    }
  }
}

void rule_unchecked_number(const std::string& path,
                           const std::vector<Token>& toks,
                           std::vector<Diagnostic>& out) {
  if (under(path, "tests/")) return;
  static const std::set<std::string> parsers = {
      "atoi",   "atol",    "atoll",    "atof",      "sscanf",
      "strtol", "strtoll", "strtoul",  "strtoull",  "strtod",
      "strtof", "strtold", "strtoimax", "strtoumax", "stoi",
      "stol",   "stoll",   "stoul",    "stoull",    "stof",
      "stod",   "stold"};
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != Token::Kind::Ident || parsers.count(toks[i].text) == 0 ||
        toks[i + 1].text != "(") {
      continue;
    }
    out.push_back(Diagnostic{"unchecked-number", toks[i].line,
                             toks[i].text +
                                 "() on an untrusted number; use "
                                 "util::parse_count, parse_u64 or parse_real "
                                 "on the command line, std::from_chars with "
                                 "an end check in src/"});
  }
}

void rule_environment(const std::string& path, const std::vector<Token>& toks,
                      std::vector<Diagnostic>& out) {
  if (under(path, "tests/")) return;
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    const std::string& t = toks[i].text;
    const bool call = (t == "getenv" || t == "secure_getenv") && i + 1 < n &&
                      toks[i + 1].text == "(";
    if (!call && t != "environ") continue;
    out.push_back(Diagnostic{"environment", toks[i].line,
                             t + " reads the environment; pass the setting "
                                 "as an argument or a config field"});
  }
}

void rule_todo_issue(const std::vector<Comment>& comments,
                     std::vector<Diagnostic>& out) {
  for (const Comment& comment : comments) {
    for (const char* marker : {"TODO", "FIXME"}) {
      const std::size_t pos = comment.text.find(marker);
      if (pos == std::string::npos) continue;
      const std::size_t after = pos + std::string(marker).size();
      if (comment.text.compare(after, 2, "(#") == 0) continue;
      out.push_back(Diagnostic{
          "todo-issue", comment.line,
          std::string(marker) +
              " without an issue tag; write " + marker + "(#123)"});
      break;
    }
  }
}

// --- per-file driver ---------------------------------------------------------

struct FileResult {
  std::vector<Diagnostic> diagnostics;  // after suppression filtering
};

FileResult lint_file(const std::string& pseudo_path, const Scan& scan) {
  std::vector<Diagnostic> raw;
  rule_wall_clock(pseudo_path, scan.tokens, raw);
  rule_unordered_json(scan.tokens, raw);
  rule_naked_lock(scan.tokens, raw);
  rule_float_equal(pseudo_path, scan.tokens, raw);
  rule_unchecked_number(pseudo_path, scan.tokens, raw);
  rule_environment(pseudo_path, scan.tokens, raw);
  rule_todo_issue(scan.comments, raw);

  // Collect suppressions; apply to the same and the following line.
  struct Suppression {
    int line;
    std::string rule;
    bool used = false;
  };
  std::vector<Suppression> suppressions;
  for (const Comment& comment : scan.comments) {
    if (comment.text.find("dmr-lint:") == std::string::npos) continue;
    for (const std::string& rule : parse_rule_list(comment.text, "allow(")) {
      suppressions.push_back(Suppression{comment.line, rule});
    }
  }

  FileResult result;
  for (Diagnostic& diag : raw) {
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.rule == diag.rule &&
          (s.line == diag.line || s.line == diag.line - 1)) {
        s.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) result.diagnostics.push_back(std::move(diag));
  }
  for (const Suppression& s : suppressions) {
    if (known_rules().count(s.rule) == 0) {
      result.diagnostics.push_back(
          Diagnostic{"unused-suppression", s.line,
                     "allow(" + s.rule + ") names no known rule"});
    } else if (!s.used) {
      result.diagnostics.push_back(
          Diagnostic{"unused-suppression", s.line,
                     "allow(" + s.rule + ") suppresses nothing; remove it"});
    }
  }
  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return result;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

// --- repository mode ---------------------------------------------------------

int run_repo(const fs::path& root) {
  const std::vector<std::string> dirs = {"src",      "include", "bench",
                                         "examples", "tools",   "tests"};
  int files = 0;
  int violations = 0;
  for (const std::string& dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
      const std::string pseudo =
          fs::relative(path, root).generic_string();
      // Fixtures break the rules on purpose; --fixtures checks them.
      if (under(pseudo, "tools/lint_fixtures/")) continue;
      ++files;
      const Scan scan = scan_source(read_file(path));
      const FileResult result = lint_file(pseudo, scan);
      for (const Diagnostic& diag : result.diagnostics) {
        std::cerr << pseudo << ":" << diag.line << ": [" << diag.rule << "] "
                  << diag.message << "\n";
        ++violations;
      }
    }
  }
  std::cerr << "dmr_lint: " << files << " files, " << violations
            << " violation(s)\n";
  return violations == 0 ? 0 : 1;
}

// --- fixture mode ------------------------------------------------------------

int run_fixtures(const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && lintable(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::cerr << "dmr_lint: no fixtures under " << dir << "\n";
    return 2;
  }
  int mismatches = 0;
  int expectations = 0;
  for (const fs::path& path : paths) {
    const Scan scan = scan_source(read_file(path));
    // The fixture declares the path it pretends to live at (rules are
    // path-scoped); default to shipped-code scope.
    std::string pseudo = "src/" + path.filename().generic_string();
    for (const Comment& comment : scan.comments) {
      const std::size_t pos = comment.text.find("dmr-lint-fixture: path=");
      if (pos == std::string::npos) continue;
      std::string value = comment.text.substr(pos + 23);
      const std::size_t end = value.find_first_of(" \t");
      pseudo = end == std::string::npos ? value : value.substr(0, end);
    }
    // Expected (line, rule) pairs from `expect(...)` comments.
    std::multiset<std::pair<int, std::string>> expected;
    for (const Comment& comment : scan.comments) {
      for (const std::string& rule : parse_rule_list(comment.text, "expect(")) {
        expected.emplace(comment.line, rule);
        ++expectations;
      }
    }
    std::multiset<std::pair<int, std::string>> actual;
    for (const Diagnostic& diag : lint_file(pseudo, scan).diagnostics) {
      actual.emplace(diag.line, diag.rule);
    }
    const std::string name = path.filename().generic_string();
    for (const auto& [line, rule] : expected) {
      if (actual.count({line, rule}) < expected.count({line, rule})) {
        std::cerr << name << ":" << line << ": expected [" << rule
                  << "] did not fire\n";
        ++mismatches;
      }
    }
    for (const auto& [line, rule] : actual) {
      if (expected.count({line, rule}) < actual.count({line, rule})) {
        std::cerr << name << ":" << line << ": unexpected [" << rule << "]\n";
        ++mismatches;
      }
    }
  }
  std::cerr << "dmr_lint fixtures: " << paths.size() << " files, "
            << expectations << " expectation(s), " << mismatches
            << " mismatch(es)\n";
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--root") {
    return run_repo(fs::path(args[1]));
  }
  if (args.size() == 2 && args[0] == "--fixtures") {
    return run_fixtures(fs::path(args[1]));
  }
  std::cerr << "usage: dmr_lint --root DIR | --fixtures DIR\n";
  return 2;
}
