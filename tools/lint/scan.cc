#include "scan.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace ddtr::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

Scrubbed scrub(const std::string& text) {
  Scrubbed out;
  out.code = text;
  out.comment.assign(std::count(text.begin(), text.end(), '\n') + 2, "");
  out.line_off.push_back(0);

  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  std::size_t line = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      out.line_off.push_back(i + 1);
      if (state == State::kLine) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out.code[i] = out.code[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out.code[i] = out.code[i + 1] = ' ';
          ++i;
        } else if (c == '"' && i > 0 && text[i - 1] == 'R') {
          // R"delim( — find the delimiter, then scan for )delim".
          raw_delim.clear();
          std::size_t j = i + 1;
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          state = State::kRaw;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && (i == 0 || !ident_char(text[i - 1]))) {
          // The ident_char guard keeps digit separators (1'000'000) and
          // literal suffixes out of the char-literal state.
          state = State::kChar;
        }
        break;
      case State::kLine:
      case State::kBlock:
        if (state == State::kBlock && c == '*' && next == '/') {
          out.code[i] = out.code[i + 1] = ' ';
          out.comment[line] += ' ';
          ++i;
          state = State::kCode;
          break;
        }
        out.comment[line] += c;
        out.code[i] = ' ';
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out.code[i] = ' ';
          if (next != '\0' && next != '\n') {
            out.code[i + 1] = ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
        } else {
          out.code[i] = ' ';
        }
        break;
      case State::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          i += close.size() - 1;
          state = State::kCode;
        } else {
          out.code[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::size_t line_of(const Scrubbed& s, std::size_t offset) {
  auto it = std::upper_bound(s.line_off.begin(), s.line_off.end(), offset);
  return static_cast<std::size_t>(it - s.line_off.begin());  // 1-based
}

std::string code_line(const Scrubbed& s, std::size_t line1) {
  if (line1 == 0 || line1 > s.line_off.size()) return "";
  const std::size_t begin = s.line_off[line1 - 1];
  const std::size_t end = line1 < s.line_off.size() ? s.line_off[line1] - 1
                                                    : s.code.size();
  return s.code.substr(begin, end - begin);
}

namespace {

bool is_keyword(std::string_view id) {
  static const char* const kw[] = {
      "if",     "while",  "for",    "switch",        "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "assert", "throw",
      "new",    "delete", "alignas", "defined",      "requires"};
  return std::any_of(std::begin(kw), std::end(kw),
                     [&](const char* k) { return id == k; });
}

std::vector<FuncDef> find_functions(const Scrubbed& s) {
  std::vector<FuncDef> defs;
  const std::string& code = s.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!ident_char(code[i]) || (i > 0 && ident_char(code[i - 1]))) continue;
    std::size_t end = i;
    while (end < code.size() && ident_char(code[end])) ++end;
    const std::string name = code.substr(i, end - i);
    if (is_keyword(name) || std::isdigit(static_cast<unsigned char>(name[0]))) {
      i = end - 1;
      continue;
    }
    std::size_t j = end;
    while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j])))
      ++j;
    if (j >= code.size() || code[j] != '(') {
      i = end - 1;
      continue;
    }
    // A member call (`os.write(...)`) is never a definition.
    std::size_t prev = i;
    while (prev > 0 &&
           std::isspace(static_cast<unsigned char>(code[prev - 1])))
      --prev;
    if (prev > 0 && (code[prev - 1] == '.' ||
                     (prev > 1 && code[prev - 2] == '-' &&
                      code[prev - 1] == '>'))) {
      i = end - 1;
      continue;
    }
    // Balance the parameter list.
    int depth = 0;
    std::size_t k = j;
    for (; k < code.size(); ++k) {
      if (code[k] == '(') ++depth;
      if (code[k] == ')' && --depth == 0) break;
    }
    if (k >= code.size()) break;
    // Scan to `{` (definition) or `;`/operator (declaration or call),
    // tolerating qualifiers, noexcept(...), ctor-init lists and trailing
    // return types.
    int d2 = 0;
    std::size_t m = k + 1;
    bool def = false;
    for (; m < code.size(); ++m) {
      const char c = code[m];
      if (c == '(' || c == '[') ++d2;
      if (c == ')' || c == ']') --d2;
      if (d2 > 0) continue;
      if (c == '{') {
        def = true;
        break;
      }
      if (c == ';' || c == ',' || c == '=' || c == '+' || c == '}' ||
          c == '?' || c == '|' || c == '"') {
        break;
      }
    }
    if (!def) {
      i = end - 1;
      continue;
    }
    // Balance the body.
    int bd = 0;
    std::size_t b = m;
    for (; b < code.size(); ++b) {
      if (code[b] == '{') ++bd;
      if (code[b] == '}' && --bd == 0) break;
    }
    defs.push_back({name, i, m, b < code.size() ? b + 1 : code.size()});
    i = end - 1;
  }
  return defs;
}

}  // namespace

const FuncDef* enclosing_function(const std::vector<FuncDef>& defs,
                                  std::size_t offset) {
  const FuncDef* best = nullptr;
  for (const FuncDef& d : defs) {
    if (offset < d.body_begin || offset >= d.body_end) continue;
    if (best == nullptr || d.body_begin > best->body_begin) best = &d;
  }
  return best;
}

namespace {

// `raw` is the unscrubbed content: the string scrubber blanks quoted
// targets in the code view.
std::vector<IncludeDirective> find_includes(const Scrubbed& s,
                                            const std::string& raw) {
  std::vector<IncludeDirective> out;
  for (std::size_t line = 1; line <= s.line_off.size(); ++line) {
    const std::string text = code_line(s, line);
    std::size_t p = text.find_first_not_of(" \t");
    if (p == std::string::npos || text[p] != '#') continue;
    ++p;
    p = text.find_first_not_of(" \t", p);
    if (p == std::string::npos || text.compare(p, 7, "include") != 0) continue;
    p = text.find_first_not_of(" \t", p + 7);
    if (p == std::string::npos) continue;
    IncludeDirective inc;
    inc.line = line;
    char close = '\0';
    if (text[p] == '<') {
      inc.angle = true;
      close = '>';
    } else if (text[p] == '"') {
      inc.angle = false;
      close = '"';
    } else {
      continue;  // computed include (macro) — out of scope
    }
    // The string scrubber blanks quoted targets in the code view, so the
    // target bytes come from the raw content — offsets map 1:1.
    const std::size_t begin = s.line_off[line - 1];
    const std::size_t open = begin + p;
    std::size_t q = open + 1;
    while (q < raw.size() && raw[q] != close && raw[q] != '\n') ++q;
    if (q >= raw.size() || raw[q] != close) continue;
    inc.target = raw.substr(open + 1, q - open - 1);
    out.push_back(std::move(inc));
  }
  return out;
}

}  // namespace

std::string normalize_path(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool path_has(const std::string& path, std::string_view needle) {
  return normalize_path(path).find(needle) != std::string::npos;
}

bool is_header_path(const std::string& path) {
  const std::string p = normalize_path(path);
  return p.ends_with(".h") || p.ends_with(".hpp");
}

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

namespace {

bool comment_allows(const std::string& comment, const std::string& rule,
                    bool file_scope) {
  const std::string tag =
      file_scope ? "ddtr-lint: allow-file(" : "ddtr-lint: allow(";
  std::size_t pos = comment.find(tag);
  while (pos != std::string::npos) {
    const std::size_t open = pos + tag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::istringstream list(comment.substr(open, close - open));
    std::string item;
    while (std::getline(list, item, ',')) {
      if (trimmed(item) == rule) return true;
    }
    pos = comment.find(tag, close);
  }
  return false;
}

}  // namespace

bool suppressed(const Scrubbed& s, const Finding& f) {
  for (const std::string& c : s.comment) {
    if (comment_allows(c, f.rule, /*file_scope=*/true)) return true;
  }
  const auto at = [&](std::size_t line1) {
    return line1 >= 1 && line1 <= s.comment.size() &&
           comment_allows(s.comment[line1 - 1], f.rule, false);
  };
  return at(f.line) || (f.line > 1 && at(f.line - 1));
}

SourceFile make_source_file(const std::string& path,
                            const std::string& content) {
  SourceFile file;
  file.path = normalize_path(path);
  file.scrubbed = scrub(content);
  file.defs = find_functions(file.scrubbed);
  file.includes = find_includes(file.scrubbed, content);
  return file;
}

std::optional<std::string> read_file_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace ddtr::lint
