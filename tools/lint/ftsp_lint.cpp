// ftsp_lint — in-tree contract checker for the ftsp codebase.
//
// The tree's most valuable properties are ones no compiler checks:
// bit-identical artifacts across thread counts, the
// byte-frozen v1 wire dialect, and the append-only error-slug /
// metric-name / section-id / op-name registries. Runtime golden tests
// catch violations only after they execute; this tool catches the
// textual signature of a violation at review time, before anything
// ships.
//
// Design constraints, deliberate:
//   * Token/line-level analysis only — no libclang, no compiler
//     dependency, so the binary builds standalone in seconds and runs
//     anywhere the tree checks out. Comments and string/char literal
//     bodies are stripped before code rules run, so prose never trips a
//     token rule (and string-literal extraction — metric names — works
//     off the same scrubber).
//   * Every rule is individually addressable (--rule=<id>) and
//     individually suppressible in source:
//         // ftsp-lint: allow(<rule-id>[,<rule-id>...]) <justification>
//     on the flagged line or the line directly above. A suppression
//     without a justification does not suppress. File-scope escape
//     hatch (the "allow-listed files" mechanism):
//         // ftsp-lint: allow-file(<rule-id>) <justification>
//   * Registry rules diff extracted source-of-truth lists against the
//     committed manifests in tools/lint/manifests/. The check enforces
//     exactly what the runtime registries claim: append-only. Removal,
//     rename and reorder are violations; new entries are registered
//     with --update-manifests (which itself refuses to bless a
//     removal).
//
// Exit codes: 0 clean, 1 findings, 2 usage/internal error.
// Diagnostics: <file>:<line>: <rule-id>: <message>   (one per line)

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* contract;
};

// Order here is the --list-rules order.
constexpr RuleInfo kRules[] = {
    {"registry-error-slug",
     "v2 wire error-code slugs (src/serve/wire.hpp) are append-only; "
     "manifest: error_slugs.txt"},
    {"registry-metric-name",
     "obs metric names (string literals across src/) are append-only; "
     "manifest: metric_names.txt"},
    {"registry-section-id",
     ".ftsa SectionId entries (src/compile/format.hpp) are append-only "
     "stable protocol constants; manifest: section_ids.txt"},
    {"registry-op-name",
     "ServiceOps table entries (src/compile/service.cpp) are append-only; "
     "manifest: op_names.txt"},
    {"det-wall-clock",
     "no wall-clock reads in library code (system_clock, time(), "
     "gettimeofday, localtime, ...); deterministic layers must not "
     "observe real time"},
    {"det-rand",
     "no global/nondeterministic randomness (std::rand, srand, "
     "random_device, default_random_engine) in library code"},
    {"det-unseeded-rng",
     "every Mt64/mt19937/mt19937_64 must be constructed with an "
     "explicit seed expression"},
    {"det-unordered-serialize",
     "deterministic-layer files that serialize (ByteWriter / "
     "core/serialize.hpp) must not hold unordered containers — "
     "iteration order could reach the bytes"},
    {"hyg-stdout",
     "library code never prints to stdout (std::cout, printf, puts); "
     "stdout belongs to the serving protocol"},
    {"hyg-exit",
     "library code never calls exit/abort/quick_exit/_Exit; errors "
     "throw and the caller decides"},
    {"hyg-using-namespace",
     "no `using namespace` in headers"},
    {"hyg-pragma-once",
     "every header starts with #pragma once"},
    {"hyg-naked-new",
     "no naked new/delete in library code; use containers or smart "
     "pointers"},
    {"hyg-local-crc",
     "no local CRC32/FNV implementations outside src/util/ — route "
     "through util::crc32 / util::Fnv1a64 (magic-constant scan)"},
};

bool is_known_rule(const std::string& id) {
  for (const auto& rule : kRules) {
    if (id == rule.id) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Scrubbed source files
// ---------------------------------------------------------------------------

/// One completed string literal and the line it started on.
struct StringLiteral {
  std::size_t line = 0;  // 1-based
  std::string text;
};

struct SourceFile {
  std::string rel_path;          // '/'-separated, relative to the root
  std::vector<std::string> raw;  // original lines
  /// Lines with comments and string/char literal *bodies* blanked out
  /// (structure, spacing and line count preserved).
  std::vector<std::string> code;
  std::vector<StringLiteral> strings;

  bool in_dir(std::string_view prefix) const {
    return rel_path.rfind(prefix, 0) == 0;
  }
  bool is_header() const {
    return rel_path.size() >= 4 &&
           rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0;
  }
};

/// Splits a file into lines and blanks comments and literal bodies.
/// Tracks state across lines (block comments, raw strings). Keeping
/// one output character per input character means every finding's
/// column context survives for humans reading the source.
void scrub(SourceFile& file, const std::string& contents) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;        // raw-string delimiter, without parens
  std::string literal;          // current string literal body
  std::size_t literal_line = 0;
  std::string raw_line;
  std::string code_line;

  const auto flush_line = [&]() {
    file.raw.push_back(raw_line);
    file.code.push_back(code_line);
    raw_line.clear();
    code_line.clear();
  };

  for (std::size_t i = 0; i <= contents.size(); ++i) {
    const bool eof = i == contents.size();
    const char c = eof ? '\n' : contents[i];
    if (c == '\n') {
      if (state == State::kLineComment) {
        state = State::kCode;
      }
      if (eof && raw_line.empty() && code_line.empty()) {
        break;
      }
      flush_line();
      if (eof) {
        break;
      }
      continue;
    }
    raw_line.push_back(c);
    const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line.push_back(' ');
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line.push_back(' ');
        } else if (c == '"') {
          // R"delim( ... )delim" — the prefix R must directly precede.
          if (!code_line.empty() && code_line.back() == 'R') {
            state = State::kRawString;
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < contents.size() && contents[j] != '(') {
              raw_delim.push_back(contents[j]);
              ++j;
            }
          } else {
            state = State::kString;
          }
          literal.clear();
          literal_line = file.raw.size() + 1;
          code_line.push_back('"');
        } else if (c == '\'') {
          state = State::kChar;
          code_line.push_back('\'');
        } else {
          code_line.push_back(c);
        }
        break;
      case State::kLineComment:
        code_line.push_back(' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line.push_back(' ');
          raw_line.push_back(next);
          code_line.push_back(' ');
          ++i;
        } else {
          code_line.push_back(' ');
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          literal.push_back(c);
          literal.push_back(next);
          raw_line.push_back(next);
          code_line.append("  ");
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          file.strings.push_back({literal_line, literal});
          code_line.push_back('"');
        } else {
          literal.push_back(c);
          code_line.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          raw_line.push_back(next);
          code_line.append("  ");
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line.push_back('\'');
        } else {
          code_line.push_back(' ');
        }
        break;
      case State::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (contents.compare(i, closer.size(), closer) == 0) {
          state = State::kCode;
          file.strings.push_back({literal_line, literal});
          for (std::size_t k = 1; k < closer.size(); ++k) {
            raw_line.push_back(contents[i + k]);
          }
          code_line.append(closer.size(), ' ');
          i += closer.size() - 1;
        } else {
          literal.push_back(c);
          code_line.push_back(' ');
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Findings + suppressions
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& other) const {
    return std::tie(file, line, rule, message) <
           std::tie(other.file, other.line, other.rule, other.message);
  }
};

/// Parses `ftsp-lint: allow(...)` / `allow-file(...)` markers out of a
/// raw line. Returns the suppressed rule ids; `justified` reports
/// whether non-empty prose follows the closing paren (required — an
/// unexplained suppression suppresses nothing).
struct Marker {
  std::set<std::string> rules;
  bool file_scope = false;
  bool justified = false;
};

bool parse_marker(const std::string& raw_line, Marker& out) {
  const std::size_t at = raw_line.find("ftsp-lint:");
  if (at == std::string::npos) {
    return false;
  }
  std::size_t pos = at + std::string("ftsp-lint:").size();
  while (pos < raw_line.size() && std::isspace(
             static_cast<unsigned char>(raw_line[pos]))) {
    ++pos;
  }
  if (raw_line.compare(pos, 11, "allow-file(") == 0) {
    out.file_scope = true;
    pos += 11;
  } else if (raw_line.compare(pos, 6, "allow(") == 0) {
    out.file_scope = false;
    pos += 6;
  } else {
    return false;
  }
  const std::size_t close = raw_line.find(')', pos);
  if (close == std::string::npos) {
    return false;
  }
  std::stringstream ids(raw_line.substr(pos, close - pos));
  std::string id;
  while (std::getline(ids, id, ',')) {
    const auto begin = id.find_first_not_of(" \t");
    const auto end = id.find_last_not_of(" \t");
    if (begin != std::string::npos) {
      out.rules.insert(id.substr(begin, end - begin + 1));
    }
  }
  for (std::size_t i = close + 1; i < raw_line.size(); ++i) {
    if (!std::isspace(static_cast<unsigned char>(raw_line[i]))) {
      out.justified = true;
      break;
    }
  }
  return !out.rules.empty();
}

/// Per-file suppression index, built once from the raw lines.
struct Suppressions {
  std::set<std::string> file_scope;
  // line (1-based) -> justified rule ids declared on that line
  std::map<std::size_t, std::set<std::string>> by_line;
  // lines carrying an allow() marker with an empty justification
  std::map<std::size_t, std::set<std::string>> unjustified;

  static Suppressions build(const SourceFile& file) {
    Suppressions sup;
    for (std::size_t i = 0; i < file.raw.size(); ++i) {
      Marker marker;
      if (!parse_marker(file.raw[i], marker)) {
        continue;
      }
      if (!marker.justified) {
        sup.unjustified[i + 1].insert(marker.rules.begin(),
                                      marker.rules.end());
        continue;
      }
      if (marker.file_scope) {
        sup.file_scope.insert(marker.rules.begin(), marker.rules.end());
      } else {
        sup.by_line[i + 1].insert(marker.rules.begin(), marker.rules.end());
      }
    }
    return sup;
  }

  /// A line finding is suppressed by a justified allow() on the same
  /// line or the line directly above, or a justified allow-file().
  bool covers(const std::string& rule, std::size_t line) const {
    if (file_scope.count(rule) != 0) {
      return true;
    }
    for (const std::size_t at : {line, line > 0 ? line - 1 : 0}) {
      const auto it = by_line.find(at);
      if (it != by_line.end() && it->second.count(rule) != 0) {
        return true;
      }
    }
    return false;
  }

  bool unjustified_near(const std::string& rule, std::size_t line) const {
    for (const std::size_t at : {line, line > 0 ? line - 1 : 0}) {
      const auto it = unjustified.find(at);
      if (it != unjustified.end() && it->second.count(rule) != 0) {
        return true;
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Token matching helpers (no std::regex — plain scans, word-boundary
// aware, fast enough to run per commit)
// ---------------------------------------------------------------------------

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs in `line` with non-word characters (or
/// edges) around it. `no_colon_before` additionally rejects matches
/// preceded by ':' (used to skip `x::token` qualifications) and
/// `no_dot_before` rejects member access `x.token`.
bool has_token(const std::string& line, std::string_view token,
               bool no_colon_before = false, bool no_dot_before = false) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok =
        (pos == 0 || (!word_char(line[pos - 1]) &&
                      (!no_colon_before || line[pos - 1] != ':') &&
                      (!no_dot_before || line[pos - 1] != '.')));
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !word_char(line[end]);
    if (left_ok && right_ok) {
      return true;
    }
    pos += 1;
  }
  return false;
}

/// `token` followed (after optional spaces) by '('.
bool has_call(const std::string& line, std::string_view token,
              bool no_colon_before = false, bool no_dot_before = false) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok =
        (pos == 0 || (!word_char(line[pos - 1]) &&
                      (!no_colon_before || line[pos - 1] != ':') &&
                      (!no_dot_before || line[pos - 1] != '.')));
    std::size_t end = pos + token.size();
    while (end < line.size() && line[end] == ' ') {
      ++end;
    }
    if (left_ok && end < line.size() && line[end] == '(') {
      return true;
    }
    pos += 1;
  }
  return false;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// ---------------------------------------------------------------------------
// Lint context
// ---------------------------------------------------------------------------

struct Context {
  fs::path root;
  fs::path manifest_dir;
  std::vector<SourceFile> files;
  std::vector<Suppressions> suppressions;  // parallel to `files`
  std::vector<Finding> findings;
  std::set<std::string> enabled;  // empty = all rules

  bool rule_on(const std::string& id) const {
    return enabled.empty() || enabled.count(id) != 0;
  }

  void report(const SourceFile& file, std::size_t line,
              const std::string& rule, std::string message) {
    const std::size_t index = static_cast<std::size_t>(&file - files.data());
    const Suppressions& sup = suppressions[index];
    if (sup.covers(rule, line)) {
      return;
    }
    if (sup.unjustified_near(rule, line)) {
      message += " [allow() present but lacks a justification — add one]";
    }
    findings.push_back({file.rel_path, line, rule, std::move(message)});
  }

  /// Findings not anchored in a scanned file (manifest diffs).
  void report_at(const std::string& path, std::size_t line,
                 const std::string& rule, std::string message) {
    findings.push_back({path, line, rule, std::move(message)});
  }
};

bool in_det_layer(const SourceFile& file) {
  for (const char* layer : {"src/core/", "src/sat/", "src/sim/", "src/qec/",
                            "src/f2/", "src/compile/"}) {
    if (file.in_dir(layer)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

void rule_det_wall_clock(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      const bool hit =
          has_token(line, "system_clock") || has_call(line, "gettimeofday") ||
          has_call(line, "localtime") || has_call(line, "gmtime") ||
          has_call(line, "ctime", /*no_colon_before=*/false,
                   /*no_dot_before=*/true) ||
          has_token(line, "std::time") ||
          // Bare time()/clock() — `steady_clock`/`system_clock` never
          // match: '_' is a word character, so there is no boundary.
          has_call(line, "time", /*no_colon_before=*/true,
                   /*no_dot_before=*/true) ||
          has_call(line, "clock", /*no_colon_before=*/true,
                   /*no_dot_before=*/true);
      if (hit) {
        ctx.report(file, i + 1, "det-wall-clock",
                   "wall-clock read in library code; deterministic layers "
                   "must not observe real time (steady_clock durations are "
                   "fine)");
      }
    }
  }
}

void rule_det_rand(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      const bool hit = has_token(line, "random_device") ||
                       has_token(line, "default_random_engine") ||
                       has_call(line, "srand") ||
                       has_call(line, "rand", /*no_colon_before=*/false,
                                /*no_dot_before=*/true);
      if (hit) {
        ctx.report(file, i + 1, "det-rand",
                   "nondeterministic randomness source; all library "
                   "randomness flows from explicit caller-provided seeds");
      }
    }
  }
}

void rule_det_unseeded_rng(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view type : {"Mt64", "mt19937_64", "mt19937"}) {
        std::size_t pos = 0;
        bool flagged = false;
        while (!flagged &&
               (pos = line.find(type, pos)) != std::string::npos) {
          const bool left_ok = pos == 0 || !word_char(line[pos - 1]);
          std::size_t j = pos + type.size();
          const bool right_ok = j >= line.size() || !word_char(line[j]);
          if (!left_ok || !right_ok) {
            ++pos;
            continue;
          }
          // `Mt64 name;` or `Mt64 name{}` — a declaration with no
          // seed expression. References/pointers and seeded forms pass.
          while (j < line.size() && line[j] == ' ') {
            ++j;
          }
          std::size_t name_end = j;
          while (name_end < line.size() && word_char(line[name_end])) {
            ++name_end;
          }
          if (name_end > j) {
            std::size_t k = name_end;
            while (k < line.size() && line[k] == ' ') {
              ++k;
            }
            const bool bare = k < line.size() && line[k] == ';';
            const bool empty_brace = k + 1 < line.size() &&
                                     line[k] == '{' && line[k + 1] == '}';
            if (bare || empty_brace) {
              ctx.report(file, i + 1, "det-unseeded-rng",
                         "default-constructed " + std::string(type) +
                             " — seed it explicitly so every stream is "
                             "reproducible");
              flagged = true;
            }
          }
          ++pos;
        }
        if (flagged) {
          break;
        }
      }
    }
  }
}

void rule_det_unordered_serialize(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!in_det_layer(file)) {
      continue;
    }
    bool serializes = false;
    for (const auto& line : file.code) {
      if (has_token(line, "ByteWriter")) {
        serializes = true;
        break;
      }
    }
    if (!serializes) {
      for (const auto& line : file.raw) {
        if (line.find("#include \"core/serialize.hpp\"") !=
                std::string::npos ||
            line.find("#include \"serve/wire.hpp\"") != std::string::npos) {
          serializes = true;
          break;
        }
      }
    }
    if (!serializes) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      if (has_token(line, "unordered_map") ||
          has_token(line, "unordered_set")) {
        ctx.report(file, i + 1, "det-unordered-serialize",
                   "unordered container in a deterministic-layer file "
                   "that serializes — iteration order must never reach "
                   "the output bytes; sort first or switch to std::map");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hygiene rules
// ---------------------------------------------------------------------------

void rule_hyg_stdout(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      // snprintf/fprintf never match: 'n'/'f' are word characters, so
      // the boundary test fails.
      if (has_token(line, "std::cout") || has_call(line, "printf") ||
          has_call(line, "puts") || has_call(line, "putchar")) {
        ctx.report(file, i + 1, "hyg-stdout",
                   "stdout write in library code — stdout belongs to the "
                   "serving protocol; use std::cerr for diagnostics");
      }
    }
  }
}

void rule_hyg_exit(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      // `.exit(` member calls and `atexit(` don't match (boundaries);
      // `std::exit(` does — ':' is not a word char.
      if (has_call(line, "exit", /*no_colon_before=*/false,
                   /*no_dot_before=*/true) ||
          has_call(line, "abort", /*no_colon_before=*/false,
                   /*no_dot_before=*/true) ||
          has_call(line, "quick_exit") || has_call(line, "_Exit")) {
        ctx.report(file, i + 1, "hyg-exit",
                   "process-terminating call in library code — throw and "
                   "let the caller decide");
      }
    }
  }
}

void rule_hyg_using_namespace(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.is_header()) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      if (file.code[i].find("using namespace") != std::string::npos) {
        ctx.report(file, i + 1, "hyg-using-namespace",
                   "`using namespace` in a header leaks into every "
                   "includer");
      }
    }
  }
}

void rule_hyg_pragma_once(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.is_header()) {
      continue;
    }
    bool found = false;
    for (const auto& line : file.raw) {
      if (trim(line) == "#pragma once") {
        found = true;
        break;
      }
    }
    if (!found) {
      ctx.report(file, 1, "hyg-pragma-once",
                 "header lacks #pragma once");
    }
  }
}

void rule_hyg_naked_new(Context& ctx) {
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      std::size_t pos = 0;
      while ((pos = line.find("new", pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !word_char(line[pos - 1]);
        std::size_t j = pos + 3;
        if (left_ok && j < line.size() && line[j] == ' ') {
          while (j < line.size() && line[j] == ' ') {
            ++j;
          }
          // `new Type`, `new (nothrow) Type`, `new Type[...]`.
          if (j < line.size() &&
              (word_char(line[j]) || line[j] == '(' || line[j] == ':')) {
            ctx.report(file, i + 1, "hyg-naked-new",
                       "naked `new` — own allocations with containers or "
                       "smart pointers");
            break;
          }
        }
        ++pos;
      }
      pos = 0;
      while ((pos = line.find("delete", pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !word_char(line[pos - 1]);
        // Right word boundary: `deleted`, `deletions`, ... are not the
        // keyword.
        if (pos + 6 < line.size() && word_char(line[pos + 6])) {
          ++pos;
          continue;
        }
        std::size_t j = pos + 6;
        while (j < line.size() && (line[j] == ' ' || line[j] == '[' ||
                                   line[j] == ']')) {
          ++j;
        }
        // `= delete;` (deleted functions) and `delete;` are fine; an
        // operand makes it a deallocation.
        std::size_t before = pos;
        while (before > 0 && line[before - 1] == ' ') {
          --before;
        }
        const bool deleted_fn = before > 0 && line[before - 1] == '=';
        if (left_ok && !deleted_fn && j < line.size() &&
            (word_char(line[j]) || line[j] == '(' || line[j] == '*')) {
          ctx.report(file, i + 1, "hyg-naked-new",
                     "naked `delete` — own allocations with containers or "
                     "smart pointers");
          break;
        }
        ++pos;
      }
    }
  }
}

void rule_hyg_local_crc(Context& ctx) {
  // Magic constants of CRC-32 (IEEE) and FNV-1a (32/64-bit, plus the
  // historical seed baked into persisted coupling fingerprints). Any
  // appearance outside src/util/ is a re-implementation.
  static const char* kMagic[] = {
      "0xEDB88320", "0xedb88320",
      "0xCBF29CE484222325", "0xcbf29ce484222325",
      "0x100000001B3", "0x100000001b3",
      "14695981039346656037", "1469598103934665603", "1099511628211",
      "2166136261", "16777619", "0x811C9DC5", "0x811c9dc5",
      "0x01000193", "0x1000193",
  };
  for (const auto& file : ctx.files) {
    if (file.in_dir("src/util/")) {
      continue;  // The one blessed home.
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (const char* magic : kMagic) {
        std::size_t pos = 0;
        bool hit = false;
        while ((pos = line.find(magic, pos)) != std::string::npos) {
          std::size_t end = pos + std::string_view(magic).size();
          // An integer-literal suffix (ULL, u64...) is still the same
          // constant; skip it before the boundary test.
          while (end < line.size() &&
                 (line[end] == 'u' || line[end] == 'U' ||
                  line[end] == 'l' || line[end] == 'L')) {
            ++end;
          }
          // Digit boundaries: "1469...603" must not match inside
          // "1469...6037", and hex constants not inside longer ones.
          const bool left_ok = pos == 0 || !word_char(line[pos - 1]);
          const bool right_ok = end >= line.size() || !word_char(line[end]);
          if (left_ok && right_ok) {
            hit = true;
            break;
          }
          ++pos;
        }
        if (hit) {
          ctx.report(file, i + 1, "hyg-local-crc",
                     std::string("CRC/FNV magic constant ") + magic +
                         " outside src/util/ — use util::crc32 / "
                         "util::Fnv1a64 instead of a local copy");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry rules
// ---------------------------------------------------------------------------

struct RegistryEntry {
  std::string name;
  std::string file;      // where it was extracted from
  std::size_t line = 0;  // 1-based
};

struct Registry {
  std::string rule_id;
  std::string kind;           // "error slug", "metric name", ...
  std::string manifest_name;  // file name under the manifest dir
  bool ordered = true;  // positional append-only vs membership-only
  std::vector<RegistryEntry> entries;  // extraction order, deduped
  bool source_found = false;
};

const SourceFile* find_file(const Context& ctx, std::string_view rel) {
  for (const auto& file : ctx.files) {
    if (file.rel_path == rel) {
      return &file;
    }
  }
  return nullptr;
}

void push_unique(Registry& reg, std::string name, const std::string& file,
                 std::size_t line) {
  for (const auto& entry : reg.entries) {
    if (entry.name == name) {
      return;
    }
  }
  reg.entries.push_back({std::move(name), file, line});
}

/// Error slugs: the `inline constexpr const char* kX = "slug";` lines
/// inside `namespace error_code` in src/serve/wire.hpp, in order.
Registry extract_error_slugs(const Context& ctx) {
  Registry reg{"registry-error-slug", "error slug", "error_slugs.txt",
               /*ordered=*/true, {}, false};
  const SourceFile* file = find_file(ctx, "src/serve/wire.hpp");
  if (file == nullptr) {
    return reg;
  }
  reg.source_found = true;
  std::size_t begin = 0;
  std::size_t end = 0;
  for (std::size_t i = 0; i < file->code.size(); ++i) {
    if (file->code[i].find("namespace error_code") != std::string::npos) {
      begin = i + 1;
      for (std::size_t j = begin; j < file->code.size(); ++j) {
        if (trim(file->code[j]).rfind('}', 0) == 0) {
          end = j;
          break;
        }
      }
      break;
    }
  }
  for (const auto& literal : file->strings) {
    if (literal.line > begin && literal.line <= end) {
      push_unique(reg, literal.text, file->rel_path, literal.line);
    }
  }
  return reg;
}

/// Section ids: `Name = N,` entries of `enum class SectionId` in
/// src/compile/format.hpp, recorded as "Name=N" so a renumbering is a
/// registry change even when names survive.
Registry extract_section_ids(const Context& ctx) {
  Registry reg{"registry-section-id", "section id", "section_ids.txt",
               /*ordered=*/true, {}, false};
  const SourceFile* file = find_file(ctx, "src/compile/format.hpp");
  if (file == nullptr) {
    return reg;
  }
  reg.source_found = true;
  bool inside = false;
  for (std::size_t i = 0; i < file->code.size(); ++i) {
    const std::string line = trim(file->code[i]);
    if (!inside) {
      if (line.find("enum class SectionId") != std::string::npos) {
        inside = true;
      }
      continue;
    }
    if (line.rfind("};", 0) == 0 || line.rfind('}', 0) == 0) {
      break;
    }
    // `Name = N,`
    std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    const std::string name = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    const std::size_t comma = value.find(',');
    if (comma != std::string::npos) {
      value = trim(value.substr(0, comma));
    }
    if (name.empty() || value.empty() ||
        !std::all_of(name.begin(), name.end(), word_char) ||
        !std::all_of(value.begin(), value.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        })) {
      continue;
    }
    push_unique(reg, name + "=" + value, file->rel_path, i + 1);
  }
  return reg;
}

/// Service ops: the first string literal of each `{"name", ...}` row of
/// the kOps table in src/compile/service.cpp, in table order.
Registry extract_op_names(const Context& ctx) {
  Registry reg{"registry-op-name", "service op", "op_names.txt",
               /*ordered=*/true, {}, false};
  const SourceFile* file = find_file(ctx, "src/compile/service.cpp");
  if (file == nullptr) {
    return reg;
  }
  reg.source_found = true;
  std::size_t begin = 0;
  std::size_t end = 0;
  for (std::size_t i = 0; i < file->code.size(); ++i) {
    if (file->code[i].find("kOps = {") != std::string::npos) {
      begin = i + 1;
      for (std::size_t j = begin; j < file->code.size(); ++j) {
        if (trim(file->code[j]).rfind("};", 0) == 0) {
          end = j;
          break;
        }
      }
      break;
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (file->code[i].find("{\"") == std::string::npos) {
      continue;
    }
    for (const auto& literal : file->strings) {
      if (literal.line == i + 1) {
        push_unique(reg, literal.text, file->rel_path, literal.line);
        break;  // first literal of the row is the op name
      }
    }
  }
  return reg;
}

/// Metric names: every string literal across src/ matching the
/// `subsystem.verb.unit` grammar — at least three lowercase dotted
/// segments, the last one a recognized unit. Composed-at-runtime names
/// are invisible to this scan, which is exactly why the obs call sites
/// spell full names (see src/obs/README.md).
bool is_metric_name(const std::string& text) {
  if (text.empty() ||
      std::islower(static_cast<unsigned char>(text[0])) == 0) {
    return false;
  }
  std::vector<std::string> segments;
  std::string segment;
  for (const char c : text) {
    if (c == '.') {
      if (segment.empty()) {
        return false;
      }
      segments.push_back(segment);
      segment.clear();
    } else if ((std::islower(static_cast<unsigned char>(c)) != 0) ||
               (std::isdigit(static_cast<unsigned char>(c)) != 0) ||
               c == '_') {
      segment.push_back(c);
    } else {
      return false;
    }
  }
  if (segment.empty()) {
    return false;
  }
  segments.push_back(segment);
  if (segments.size() < 3) {
    return false;
  }
  const std::string& unit = segments.back();
  const auto ends_with = [&unit](std::string_view suffix) {
    return unit.size() >= suffix.size() &&
           unit.compare(unit.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  return ends_with("count") || ends_with("bytes") || ends_with("_us") ||
         unit == "index" || unit == "generation";
}

Registry extract_metric_names(const Context& ctx) {
  Registry reg{"registry-metric-name", "metric name", "metric_names.txt",
               /*ordered=*/false, {}, false};
  for (const auto& file : ctx.files) {
    if (!file.in_dir("src/")) {
      continue;
    }
    reg.source_found = true;
    for (const auto& literal : file.strings) {
      if (is_metric_name(literal.text)) {
        push_unique(reg, literal.text, file.rel_path, literal.line);
      }
    }
  }
  std::sort(reg.entries.begin(), reg.entries.end(),
            [](const RegistryEntry& a, const RegistryEntry& b) {
              return a.name < b.name;
            });
  return reg;
}

std::vector<std::string> read_manifest(const fs::path& path) {
  std::vector<std::string> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string entry = trim(line);
    if (entry.empty() || entry[0] == '#') {
      continue;
    }
    entries.push_back(entry);
  }
  return entries;
}

void check_registry(Context& ctx, const Registry& reg) {
  const fs::path manifest_path = ctx.manifest_dir / reg.manifest_name;
  const std::string manifest_rel = "tools/lint/manifests/" + reg.manifest_name;
  const std::vector<std::string> manifest = read_manifest(manifest_path);
  if (!reg.source_found) {
    if (!manifest.empty()) {
      ctx.report_at(manifest_rel, 1, reg.rule_id,
                    "manifest exists but the extraction source was not "
                    "found under the lint root");
    }
    return;
  }

  if (!reg.ordered) {
    // Membership append-only: names live in many files, so ordering is
    // the manifest's (sorted); only additions and removals matter.
    std::set<std::string> extracted;
    for (const auto& entry : reg.entries) {
      extracted.insert(entry.name);
    }
    std::set<std::string> registered(manifest.begin(), manifest.end());
    for (const auto& entry : reg.entries) {
      if (registered.count(entry.name) == 0) {
        ctx.report_at(entry.file, entry.line, reg.rule_id,
                      "unregistered " + reg.kind + " '" + entry.name +
                          "' — register it in " + manifest_rel +
                          " (ftsp_lint --update-manifests)");
      }
    }
    for (const auto& name : registered) {
      if (extracted.count(name) == 0) {
        ctx.report_at(manifest_rel, 1, reg.rule_id,
                      "registered " + reg.kind + " '" + name +
                          "' no longer appears in the sources — the "
                          "registry is append-only; published names must "
                          "keep working");
      }
    }
    return;
  }

  // Positional append-only: the manifest must be a prefix of the
  // extracted list; anything else is a removal, rename or reorder.
  std::size_t i = 0;
  while (i < manifest.size() && i < reg.entries.size() &&
         manifest[i] == reg.entries[i].name) {
    ++i;
  }
  if (i == manifest.size()) {
    for (std::size_t j = i; j < reg.entries.size(); ++j) {
      ctx.report_at(reg.entries[j].file, reg.entries[j].line, reg.rule_id,
                    "unregistered " + reg.kind + " '" + reg.entries[j].name +
                        "' — append it to " + manifest_rel +
                        " (ftsp_lint --update-manifests)");
    }
    return;
  }
  if (i == reg.entries.size()) {
    for (std::size_t j = i; j < manifest.size(); ++j) {
      ctx.report_at(manifest_rel, j + 1, reg.rule_id,
                    "registered " + reg.kind + " '" + manifest[j] +
                        "' removed from the source — the registry is "
                        "append-only");
    }
    return;
  }
  ctx.report_at(manifest_rel, i + 1, reg.rule_id,
                "registry mismatch at entry " + std::to_string(i + 1) +
                    ": manifest has '" + manifest[i] + "', source has '" +
                    reg.entries[i].name +
                    "' — renames/reorders violate append-only");
}

/// --update-manifests: append newly extracted entries. Refuses to drop
/// or reorder anything already registered — the tool can bless growth,
/// never a removal.
bool update_manifest(const Context& ctx, const Registry& reg) {
  if (!reg.source_found) {
    return true;  // nothing to update; check_registry covers the error
  }
  const fs::path manifest_path = ctx.manifest_dir / reg.manifest_name;
  const std::vector<std::string> manifest = read_manifest(manifest_path);
  if (reg.ordered) {
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      if (i >= reg.entries.size() || manifest[i] != reg.entries[i].name) {
        std::cerr << "ftsp_lint: refusing to update " << reg.manifest_name
                  << ": registered " << reg.kind << " '" << manifest[i]
                  << "' was removed, renamed or reordered (append-only)\n";
        return false;
      }
    }
  } else {
    std::set<std::string> extracted;
    for (const auto& entry : reg.entries) {
      extracted.insert(entry.name);
    }
    for (const auto& name : manifest) {
      if (extracted.count(name) == 0) {
        std::cerr << "ftsp_lint: refusing to update " << reg.manifest_name
                  << ": registered " << reg.kind << " '" << name
                  << "' no longer appears in the sources (append-only)\n";
        return false;
      }
    }
  }
  fs::create_directories(ctx.manifest_dir);
  std::ofstream out(manifest_path, std::ios::trunc);
  if (!out) {
    std::cerr << "ftsp_lint: cannot write " << manifest_path.string()
              << "\n";
    return false;
  }
  out << "# " << reg.kind << " registry — append-only; maintained by\n"
      << "# `ftsp_lint --update-manifests`, checked by rule "
      << reg.rule_id << ".\n";
  for (const auto& entry : reg.entries) {
    out << entry.name << "\n";
  }
  if (reg.entries.size() > manifest.size()) {
    std::cerr << "ftsp_lint: " << reg.manifest_name << ": registered "
              << (reg.entries.size() - manifest.size()) << " new "
              << reg.kind << "(s)\n";
  }
  return true;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void load_tree(Context& ctx) {
  std::vector<fs::path> paths;
  for (const char* top : {"src", "tests", "bench", "examples"}) {
    const fs::path dir = ctx.root / top;
    if (!fs::exists(dir)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") {
        continue;
      }
      // Lint fixtures are deliberate violations driven by test_lint —
      // never part of the real tree's surface. Root-relative, so a
      // fixture dir can itself serve as a --root.
      const std::string rel =
          fs::relative(entry.path(), ctx.root).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) {
        continue;
      }
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    SourceFile file;
    file.rel_path = fs::relative(path, ctx.root).generic_string();
    scrub(file, buffer.str());
    ctx.files.push_back(std::move(file));
  }
  ctx.suppressions.reserve(ctx.files.size());
  for (const auto& file : ctx.files) {
    ctx.suppressions.push_back(Suppressions::build(file));
  }
}

int usage(std::ostream& out, int code) {
  out << "usage: ftsp_lint [--root DIR] [--manifests DIR]\n"
         "                 [--rule RULE-ID ...] [--list-rules]\n"
         "                 [--update-manifests]\n"
         "\n"
         "Checks the tree's house contracts (determinism, frozen wire,\n"
         "append-only registries, library hygiene). Exit 0 when clean,\n"
         "1 on findings, 2 on usage errors.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.root = fs::current_path();
  bool list_rules = false;
  bool update_manifests = false;
  bool manifests_overridden = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        return arg.substr(prefix.size());
      }
      if (i + 1 >= argc) {
        std::cerr << "ftsp_lint: " << flag << " needs a value\n";
        std::exit(usage(std::cerr, 2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--update-manifests") {
      update_manifests = true;
    } else if (arg == "--root" || arg.rfind("--root=", 0) == 0) {
      ctx.root = fs::path(value("--root"));
    } else if (arg == "--manifests" || arg.rfind("--manifests=", 0) == 0) {
      ctx.manifest_dir = fs::path(value("--manifests"));
      manifests_overridden = true;
    } else if (arg == "--rule" || arg.rfind("--rule=", 0) == 0) {
      const std::string id = value("--rule");
      if (!is_known_rule(id)) {
        std::cerr << "ftsp_lint: unknown rule '" << id
                  << "' (see --list-rules)\n";
        return 2;
      }
      ctx.enabled.insert(id);
    } else {
      std::cerr << "ftsp_lint: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (list_rules) {
    for (const auto& rule : kRules) {
      std::cout << rule.id << "\n    " << rule.contract << "\n";
    }
    return 0;
  }

  if (!fs::exists(ctx.root)) {
    std::cerr << "ftsp_lint: root does not exist: " << ctx.root.string()
              << "\n";
    return 2;
  }
  if (!manifests_overridden) {
    ctx.manifest_dir = ctx.root / "tools" / "lint" / "manifests";
  }

  load_tree(ctx);

  // Line rules.
  if (ctx.rule_on("det-wall-clock")) rule_det_wall_clock(ctx);
  if (ctx.rule_on("det-rand")) rule_det_rand(ctx);
  if (ctx.rule_on("det-unseeded-rng")) rule_det_unseeded_rng(ctx);
  if (ctx.rule_on("det-unordered-serialize")) rule_det_unordered_serialize(ctx);
  if (ctx.rule_on("hyg-stdout")) rule_hyg_stdout(ctx);
  if (ctx.rule_on("hyg-exit")) rule_hyg_exit(ctx);
  if (ctx.rule_on("hyg-using-namespace")) rule_hyg_using_namespace(ctx);
  if (ctx.rule_on("hyg-pragma-once")) rule_hyg_pragma_once(ctx);
  if (ctx.rule_on("hyg-naked-new")) rule_hyg_naked_new(ctx);
  if (ctx.rule_on("hyg-local-crc")) rule_hyg_local_crc(ctx);

  // Registry rules.
  std::vector<Registry> registries;
  if (ctx.rule_on("registry-error-slug")) {
    registries.push_back(extract_error_slugs(ctx));
  }
  if (ctx.rule_on("registry-section-id")) {
    registries.push_back(extract_section_ids(ctx));
  }
  if (ctx.rule_on("registry-op-name")) {
    registries.push_back(extract_op_names(ctx));
  }
  if (ctx.rule_on("registry-metric-name")) {
    registries.push_back(extract_metric_names(ctx));
  }

  if (update_manifests) {
    bool ok = true;
    for (const auto& reg : registries) {
      ok = update_manifest(ctx, reg) && ok;
    }
    if (!ok) {
      return 1;
    }
  }
  for (const auto& reg : registries) {
    check_registry(ctx, reg);
  }

  std::sort(ctx.findings.begin(), ctx.findings.end());
  for (const auto& finding : ctx.findings) {
    std::cout << finding.file << ":" << finding.line << ": " << finding.rule
              << ": " << finding.message << "\n";
  }
  if (!ctx.findings.empty()) {
    std::cerr << "ftsp_lint: " << ctx.findings.size() << " finding(s) in "
              << ctx.files.size() << " file(s)\n";
    return 1;
  }
  std::cerr << "ftsp_lint: clean (" << ctx.files.size() << " files, "
            << (ctx.enabled.empty() ? std::size(kRules) : ctx.enabled.size())
            << " rules)\n";
  return 0;
}
