#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mergescale::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// One physical line after the sanitizing pass: comments and literal
/// contents blanked to spaces (so rule patterns can't fire inside them),
/// plus any mslint directives the line's comments carried.
struct Line {
  std::string code;
  bool hot_on = false;
  bool cold_on = false;
  std::vector<std::string> allows;
};

/// Parses one `mslint:` directive body, e.g. "hot-path" or
/// "allow(bare-lock, hot-alloc)".
void parse_directive(std::string_view body, Line& line) {
  // Trim, then read the first directive token only — trailing prose
  // after the token ("hot-path — batch kernels below") stays commentary.
  while (!body.empty() && body.front() == ' ') body.remove_prefix(1);
  while (!body.empty() &&
         (body.back() == ' ' || body.back() == '\r')) {
    body.remove_suffix(1);
  }
  const std::size_t space = body.find(' ');
  const std::string_view token =
      space == std::string_view::npos ? body : body.substr(0, space);
  if (token == "hot-path") {
    line.hot_on = true;
  } else if (token == "cold") {
    line.cold_on = true;
  } else if (body.rfind("allow(", 0) == 0 &&
             body.find(')') != std::string_view::npos) {
    std::string names(body.substr(6, body.find(')') - 6));
    std::stringstream ss(names);
    std::string name;
    while (std::getline(ss, name, ',')) {
      name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
      if (!name.empty()) line.allows.push_back(name);
    }
  }
  // Unknown directives are ignored: a future mslint may know them, and
  // an old binary refusing to scan would be worse than skipping one.
}

void scan_comment_text(std::string_view text, Line& line) {
  const std::string_view tag = "mslint:";
  const std::size_t pos = text.find(tag);
  if (pos != std::string_view::npos) {
    parse_directive(text.substr(pos + tag.size()), line);
  }
}

/// Splits `content` into sanitized lines.  Tracks block comments, string
/// and char literals (raw strings included) across the whole file.
std::vector<Line> sanitize(std::string_view content) {
  std::vector<Line> lines(1);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string comment_text;   // accumulates the current comment
  std::string raw_delimiter;  // for )delim" raw-string terminators
  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = (i + 1 < n) ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        scan_comment_text(comment_text, lines.back());
        comment_text.clear();
        state = State::kCode;
      }
      lines.emplace_back();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (lines.back().code.empty() ||
                    !is_ident_char(lines.back().code.back()))) {
          // Raw string literal: R"delim( ... )delim"
          state = State::kRawString;
          raw_delimiter.clear();
          std::size_t j = i + 2;
          while (j < n && content[j] != '(') raw_delimiter += content[j++];
          lines.back().code += "\"\"";
          i = j;  // lands on '(' (or end)
        } else if (c == '"') {
          state = State::kString;
          lines.back().code += '"';
        } else if (c == '\'' &&
                   !(!lines.back().code.empty() &&
                     (is_ident_char(lines.back().code.back())))) {
          // Leading identifier char means a digit separator (1'000'000),
          // not a char literal.
          state = State::kChar;
          lines.back().code += '\'';
        } else {
          lines.back().code += c;
        }
        break;
      case State::kLineComment:
        comment_text += c;
        break;
      case State::kBlockComment:
        if (c == 'm' && content.compare(i, 7, "mslint:") == 0) {
          // Directives inside block comments work too.
          std::size_t end = content.find_first_of("\n*", i);
          if (end == std::string_view::npos) end = n;
          Line& line = lines.back();
          parse_directive(
              std::string_view(content).substr(i + 7, end - (i + 7)), line);
          i = end - 1;
        } else if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip the escaped char (even across \" and \\)
        } else if (c == '"') {
          state = State::kCode;
          lines.back().code += '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          lines.back().code += '\'';
        }
        break;
      case State::kRawString:
        if (c == ')' &&
            content.compare(i + 1, raw_delimiter.size(), raw_delimiter) == 0 &&
            i + 1 + raw_delimiter.size() < n &&
            content[i + 1 + raw_delimiter.size()] == '"') {
          i += 1 + raw_delimiter.size();
          state = State::kCode;
        }
        break;
    }
  }
  if (state == State::kLineComment) {
    scan_comment_text(comment_text, lines.back());
  }
  return lines;
}

/// True when code[pos..pos+len) is a whole identifier (not a substring
/// of a longer one).
bool whole_word(std::string_view code, std::size_t pos, std::size_t len) {
  if (pos > 0 && is_ident_char(code[pos - 1])) return false;
  if (pos + len < code.size() && is_ident_char(code[pos + len])) return false;
  return true;
}

/// First non-space position at or after `pos` (npos when none).
std::size_t skip_spaces(std::string_view code, std::size_t pos) {
  while (pos < code.size() &&
         (code[pos] == ' ' || code[pos] == '\t')) {
    ++pos;
  }
  return pos < code.size() ? pos : std::string_view::npos;
}

/// Walks left from `dot` (the '.' of a member call) and returns the
/// receiver identifier, or "" when the receiver is not a plain name.
/// `p->mu_.lock()` and `this->mu_.lock()` resolve to "mu_".
std::string_view receiver_before(std::string_view code, std::size_t dot) {
  std::size_t end = dot;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(code[begin - 1])) --begin;
  if (begin == end) return {};
  return code.substr(begin, end - begin);
}

bool mutex_named(std::string_view name) {
  auto strip = [](std::string_view s) {
    if (!s.empty() && s.back() == '_') s.remove_suffix(1);
    return s;
  };
  const std::string_view base = strip(name);
  if (base == "mu" || base == "mtx" || base == "mutex") return true;
  auto ends_with = [&](std::string_view suffix) {
    return base.size() > suffix.size() &&
           base.compare(base.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  return ends_with("_mu") || ends_with("_mtx") || ends_with("_mutex");
}

struct Scanner {
  std::string_view path;
  std::vector<Finding>* out;
  const Line* line = nullptr;
  int lineno = 0;

  bool allowed(std::string_view rule) const {
    return std::find(line->allows.begin(), line->allows.end(), rule) !=
           line->allows.end();
  }

  void report(std::string_view rule, std::string message) const {
    if (allowed(rule)) return;
    out->push_back(Finding{std::string(path), lineno, std::string(rule),
                           std::move(message)});
  }

  // --- hot-path rules -----------------------------------------------

  void hot_alloc() const {
    const std::string_view code = line->code;
    for (std::size_t pos = code.find("new"); pos != std::string_view::npos;
         pos = code.find("new", pos + 3)) {
      if (!whole_word(code, pos, 3)) continue;
      report("hot-alloc", "operator new in a hot-path region");
    }
    for (const char* fn : {"malloc", "calloc", "realloc"}) {
      const std::string_view name = fn;
      for (std::size_t pos = code.find(name); pos != std::string_view::npos;
           pos = code.find(name, pos + name.size())) {
        if (!whole_word(code, pos, name.size())) continue;
        const std::size_t after = skip_spaces(code, pos + name.size());
        if (after == std::string_view::npos || code[after] != '(') continue;
        report("hot-alloc", std::string(name) + "() in a hot-path region");
      }
    }
    for (const char* fn : {"make_unique", "make_shared"}) {
      if (code.find(fn) != std::string_view::npos) {
        report("hot-alloc", std::string(fn) + " in a hot-path region");
      }
    }
  }

  void hot_string() const {
    const std::string_view code = line->code;
    if (code.find("std::to_string") != std::string_view::npos) {
      report("hot-string", "std::to_string allocates; hot code renders later");
    }
    const std::string_view token = "std::string";
    for (std::size_t pos = code.find(token); pos != std::string_view::npos;
         pos = code.find(token, pos + token.size())) {
      const std::size_t after = pos + token.size();
      // std::string_view, std::stringstream, ... are other tokens.
      if (after < code.size() && is_ident_char(code[after])) continue;
      // References, pointers and template arguments don't construct.
      const std::size_t next = skip_spaces(code, after);
      if (next == std::string_view::npos) continue;
      const char c = code[next];
      if (c == '&' || c == '*' || c == '>' || c == ',' || c == ')' ||
          c == ';' || c == ':') {
        continue;
      }
      report("hot-string",
             "std::string construction in a hot-path region (use "
             "string_view or an interned name_id)");
    }
  }

  void hot_iostream() const {
    for (const char* token :
         {"std::cout", "std::cerr", "std::clog", "std::ostringstream",
          "std::istringstream", "std::stringstream", "std::ofstream",
          "std::ifstream", "std::fstream", "std::endl"}) {
      if (line->code.find(token) != std::string_view::npos) {
        report("hot-iostream",
               std::string(token) + " in a hot-path region");
      }
    }
  }

  void raw_law_name() const {
    const std::string_view code = line->code;
    const std::string_view member = ".name()";
    for (std::size_t pos = code.find(member); pos != std::string_view::npos;
         pos = code.find(member, pos + member.size())) {
      report("raw-law-name",
             "law .name() in a hot-path region; compare interned name_id "
             "instead");
    }
    const std::string_view token = "intern";
    for (std::size_t pos = code.find(token); pos != std::string_view::npos;
         pos = code.find(token, pos + token.size())) {
      if (!whole_word(code, pos, token.size())) continue;
      const std::size_t after = skip_spaces(code, pos + token.size());
      if (after == std::string_view::npos || code[after] != '(') continue;
      report("raw-law-name",
             "intern() in a hot-path region; intern at construction, not "
             "per evaluation");
    }
  }

  // --- everywhere rules ---------------------------------------------

  void bare_lock() const {
    const std::string_view code = line->code;
    for (const char* method :
         {".lock(", ".unlock(", ".lock_shared(", ".unlock_shared(",
          ".try_lock("}) {
      const std::string_view pattern = method;
      for (std::size_t pos = code.find(pattern); pos != std::string_view::npos;
           pos = code.find(pattern, pos + pattern.size())) {
        const std::string_view recv = receiver_before(code, pos);
        if (!mutex_named(recv)) continue;  // RAII guards (lock.unlock()) pass
        report("bare-lock",
               "bare " + std::string(recv) +
                   std::string(pattern.substr(0, pattern.size() - 1)) +
                   ") call; use a util::MutexLock/ReaderLock/WriterLock "
                   "guard");
      }
    }
  }

  /// Files may opt out wholesale (util/io_env.cpp, the one place raw
  /// primitives are allowed); set by lint_source from the path.
  bool raw_io_exempt = false;

  void raw_io() const {
    if (raw_io_exempt) return;
    const std::string_view code = line->code;
    // C stdio file calls by name.
    for (const char* fn : {"fopen", "freopen", "fwrite", "fread"}) {
      const std::string_view name = fn;
      for (std::size_t pos = code.find(name); pos != std::string_view::npos;
           pos = code.find(name, pos + name.size())) {
        if (!whole_word(code, pos, name.size())) continue;
        const std::size_t after = skip_spaces(code, pos + name.size());
        if (after == std::string_view::npos || code[after] != '(') continue;
        report("raw-io",
               std::string(name) +
                   "() bypasses util::IoEnv; file bytes must flow through "
                   "the env so faults stay injectable");
      }
    }
    // Global-qualified POSIX file primitives.  Requiring the bare `::`
    // form keeps qualified names out: std::filesystem::rename and
    // member statics (File::open) have an identifier before the colons.
    for (const char* fn :
         {"open", "creat", "write", "pwrite", "read", "pread", "fsync",
          "fdatasync", "ftruncate", "truncate", "rename", "unlink", "mmap",
          "munmap"}) {
      const std::string name = std::string("::") + fn;
      for (std::size_t pos = code.find(name); pos != std::string_view::npos;
           pos = code.find(name, pos + name.size())) {
        if (pos > 0 &&
            (is_ident_char(code[pos - 1]) || code[pos - 1] == ':')) {
          continue;  // qualified (std::..., Type::...), not the global ns
        }
        const std::size_t after = skip_spaces(code, pos + name.size());
        if (after == std::string_view::npos || code[after] != '(') continue;
        report("raw-io",
               name + "() bypasses util::IoEnv; file bytes must flow "
                      "through the env so faults stay injectable");
      }
    }
  }
};

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kRules = {
      "hot-alloc", "hot-string", "hot-iostream", "raw-law-name",
      "bare-lock", "raw-io",
  };
  return kRules;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view content) {
  std::vector<Finding> findings;
  std::vector<Line> lines = sanitize(content);
  Scanner scanner{path, &findings, nullptr, 0};
  // util/io_env.cpp is the designated raw-I/O boundary; everything else
  // must go through the env.
  const std::string_view exempt_suffix = "io_env.cpp";
  scanner.raw_io_exempt =
      path.size() >= exempt_suffix.size() &&
      path.compare(path.size() - exempt_suffix.size(), exempt_suffix.size(),
                   exempt_suffix) == 0;
  bool hot = false;
  std::vector<std::string> carried;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Line& line = lines[i];
    // A line carrying hot-path is already hot; one carrying cold is
    // already cold — the directive governs its own line.
    if (line.hot_on) hot = true;
    if (line.cold_on) hot = false;
    // allow() on a comment-only line governs the next line (the
    // NOLINTNEXTLINE convention); on a code line it governs itself.
    line.allows.insert(line.allows.end(), carried.begin(), carried.end());
    carried.clear();
    const bool code_blank =
        line.code.find_first_not_of(" \t") == std::string::npos;
    if (code_blank) carried = line.allows;
    scanner.line = &line;
    scanner.lineno = static_cast<int>(i + 1);
    scanner.bare_lock();
    scanner.raw_io();
    if (hot) {
      scanner.hot_alloc();
      scanner.hot_string();
      scanner.hot_iostream();
      scanner.raw_law_name();
    }
  }
  return findings;
}

std::vector<Finding> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("mslint: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(path, buffer.str());
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " +
         finding.rule + ": " + finding.message;
}

}  // namespace mergescale::lint
