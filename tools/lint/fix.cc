#include "fix.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <tuple>

namespace ddtr::lint {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (start < text.size()) lines.push_back(text.substr(start));
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       bool trailing_newline) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size() || trailing_newline) out += '\n';
  }
  return out;
}

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string stem_of(const std::string& path) {
  std::string base = basename_of(normalize_path(path));
  const std::size_t dot = base.rfind('.');
  if (dot != std::string::npos) base.resize(dot);
  return base;
}

// Is this quoted include the file's own header? ("m/foo.h" from any
// foo.cc — matched on the basename so the rule works for src/ and
// tools/ layouts alike.)
bool is_primary(const SourceFile& file, const IncludeDirective& inc) {
  if (inc.angle) return false;
  const std::string p = normalize_path(file.path);
  if (!p.ends_with(".cc") && !p.ends_with(".cpp")) return false;
  return basename_of(normalize_path(inc.target)) == stem_of(p) + ".h";
}

enum class Group : int {
  kPrimary = 0,
  kCxxStd = 1,   // <...> without a dot
  kCSystem = 2,  // <...> with a dot
  kProject = 3,  // "..."
};

Group group_of(const SourceFile& file, const IncludeDirective& inc) {
  if (is_primary(file, inc)) return Group::kPrimary;
  if (inc.angle) {
    return inc.target.find('.') == std::string::npos ? Group::kCxxStd
                                                     : Group::kCSystem;
  }
  return Group::kProject;
}

struct Region {
  std::size_t first_line = 0;  // 1-based, inclusive
  std::size_t last_line = 0;
  std::vector<const IncludeDirective*> includes;
};

// Maximal runs of movable include lines (unconditional, no trailing
// comment, nothing else on the line) and interior blanks. Anything else
// — code, comments, preprocessor conditionals, commented includes —
// bounds the region and is never crossed.
std::vector<Region> find_regions(const SourceFile& file) {
  const Scrubbed& s = file.scrubbed;
  std::map<std::size_t, const IncludeDirective*> by_line;
  for (const IncludeDirective& inc : file.includes) {
    if (inc.conditional) continue;
    if (inc.line <= s.comment.size() && !s.comment[inc.line - 1].empty())
      continue;  // trailing comment — pinned in place
    by_line[inc.line] = &inc;
  }
  std::vector<Region> regions;
  Region cur;
  const std::size_t n = s.line_off.size();
  const auto flush = [&] {
    if (!cur.includes.empty()) regions.push_back(cur);
    cur = Region{};
  };
  for (std::size_t line = 1; line <= n; ++line) {
    const auto it = by_line.find(line);
    if (it != by_line.end()) {
      if (cur.includes.empty()) cur.first_line = line;
      cur.last_line = line;
      cur.includes.push_back(it->second);
      continue;
    }
    const bool blank =
        trimmed(code_line(s, line)).empty() &&
        (line > s.comment.size() || s.comment[line - 1].empty());
    if (blank && !cur.includes.empty()) continue;  // interior/trailing blank
    flush();
  }
  flush();
  return regions;
}

std::vector<std::string> canonical_region(const SourceFile& file,
                                          const Region& region) {
  std::vector<std::pair<int, std::string>> keyed;  // (group, target)
  std::vector<bool> angle_of;
  for (const IncludeDirective* inc : region.includes) {
    keyed.emplace_back(static_cast<int>(group_of(file, *inc)), inc->target);
    angle_of.push_back(inc->angle);
  }
  struct Entry {
    int group;
    std::string target;
    bool angle;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    entries.push_back({keyed[i].first, keyed[i].second, angle_of[i]});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return std::tie(a.group, a.target) <
                            std::tie(b.group, b.target);
                   });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.group == b.group &&
                                     a.target == b.target &&
                                     a.angle == b.angle;
                            }),
                entries.end());
  std::vector<std::string> lines;
  int last_group = -1;
  for (const Entry& e : entries) {
    if (last_group != -1 && e.group != last_group) lines.push_back("");
    last_group = e.group;
    lines.push_back(e.angle ? "#include <" + e.target + ">"
                            : "#include \"" + e.target + "\"");
  }
  return lines;
}

// Rewrites the regions of `file` into canonical form, skipping any
// include line listed in `drop`. Returns the new content.
std::string rewrite(const SourceFile& file,
                    const std::set<std::size_t>& drop) {
  const std::vector<std::string> lines = split_lines(file.content);
  const bool trailing_nl =
      !file.content.empty() && file.content.back() == '\n';
  std::vector<Region> regions = find_regions(file);
  std::vector<std::string> out;
  std::size_t line = 1;
  std::size_t r = 0;
  while (line <= lines.size()) {
    if (r < regions.size() && line == regions[r].first_line) {
      Region region = regions[r];
      region.includes.erase(
          std::remove_if(region.includes.begin(), region.includes.end(),
                         [&](const IncludeDirective* inc) {
                           return drop.count(inc->line) != 0;
                         }),
          region.includes.end());
      const std::vector<std::string> canonical =
          canonical_region(file, region);
      out.insert(out.end(), canonical.begin(), canonical.end());
      line = regions[r].last_line + 1;
      ++r;
      continue;
    }
    out.push_back(lines[line - 1]);
    ++line;
  }
  return join_lines(out, trailing_nl);
}

}  // namespace

std::string reorder_includes(const SourceFile& file) {
  return rewrite(file, {});
}

void check_include_order(const SourceFile& file, std::vector<Finding>& out) {
  const std::vector<std::string> lines = split_lines(file.content);
  for (const Region& region : find_regions(file)) {
    std::vector<std::string> original(
        lines.begin() + static_cast<std::ptrdiff_t>(region.first_line - 1),
        lines.begin() + static_cast<std::ptrdiff_t>(region.last_line));
    // Trailing blanks inside the region bounds are preserved by the
    // rewrite, so compare without them.
    while (!original.empty() && trimmed(original.back()).empty())
      original.pop_back();
    if (original == canonical_region(file, region)) continue;
    out.push_back(
        {file.path, region.first_line, "include-order",
         "include block is not in canonical order (primary header, "
         "<c++-std>, <system.h>, \"project\" — alphabetical within "
         "groups)",
         "run `ddtr_lint --fix` to rewrite the block"});
  }
}

std::optional<FileFix> fix_source(const SourceFile& file,
                                  const std::set<std::size_t>& removable) {
  FileFix fix;
  if (!removable.empty()) {
    fix.notes.push_back("removed " + std::to_string(removable.size()) +
                        " unused include(s)");
  }
  std::string content = rewrite(file, removable);

  if (is_header_path(file.path) &&
      file.scrubbed.code.find("#pragma once") == std::string::npos) {
    // Insert after the leading comment/blank block, matching the tree's
    // style of a doc comment above the pragma.
    std::vector<std::string> lines = split_lines(content);
    const bool trailing_nl = !content.empty() && content.back() == '\n';
    const Scrubbed s = scrub(content);
    std::size_t at = 0;
    while (at < lines.size()) {
      const std::string code = at + 1 <= s.line_off.size()
                                   ? trimmed(code_line(s, at + 1))
                                   : trimmed(lines[at]);
      if (!code.empty()) break;
      ++at;
    }
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 "#pragma once");
    content = join_lines(lines, trailing_nl || lines.size() == 1);
    fix.notes.push_back("added `#pragma once`");
  }

  if (content == file.content) return std::nullopt;
  if (fix.notes.empty()) fix.notes.push_back("canonicalized include order");
  fix.after = std::move(content);
  return fix;
}

std::string unified_diff(const std::string& before, const std::string& after,
                         const std::string& path) {
  const std::vector<std::string> a = split_lines(before);
  const std::vector<std::string> b = split_lines(after);
  const std::size_t n = a.size(), m = b.size();
  // LCS table (files are small; O(n*m) is fine at lint scale).
  std::vector<std::vector<std::uint32_t>> lcs(
      n + 1, std::vector<std::uint32_t>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j]
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  struct Op {
    char kind;  // ' ', '-', '+'
    const std::string* text;
  };
  std::vector<Op> ops;
  std::size_t i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j]) {
      ops.push_back({' ', &a[i]});
      ++i, ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      ops.push_back({'-', &a[i]});
      ++i;
    } else {
      ops.push_back({'+', &b[j]});
      ++j;
    }
  }
  while (i < n) ops.push_back({'-', &a[i++]});
  while (j < m) ops.push_back({'+', &b[j++]});

  // Old/new line number at (i.e. just before) each op.
  std::vector<std::size_t> at_old(ops.size() + 1), at_new(ops.size() + 1);
  at_old[0] = at_new[0] = 1;
  for (std::size_t t = 0; t < ops.size(); ++t) {
    at_old[t + 1] = at_old[t] + (ops[t].kind != '+' ? 1 : 0);
    at_new[t + 1] = at_new[t] + (ops[t].kind != '-' ? 1 : 0);
  }

  // Hunks: change runs padded with kContext lines, merged when the gap
  // between two runs is within 2*kContext.
  constexpr std::size_t kContext = 3;
  std::ostringstream out;
  out << "--- a/" << path << "\n+++ b/" << path << "\n";
  std::size_t k = 0;
  while (k < ops.size()) {
    if (ops[k].kind == ' ') {
      ++k;
      continue;
    }
    std::size_t last_change = k;
    std::size_t scan = k + 1;
    while (scan < ops.size()) {
      if (ops[scan].kind != ' ') {
        last_change = scan;
        ++scan;
        continue;
      }
      if (scan - last_change > 2 * kContext) break;
      ++scan;
    }
    const std::size_t start = k >= kContext ? k - kContext : 0;
    const std::size_t end =
        std::min(ops.size(), last_change + 1 + kContext);
    std::size_t count_old = 0, count_new = 0;
    for (std::size_t t = start; t < end; ++t) {
      if (ops[t].kind != '+') ++count_old;
      if (ops[t].kind != '-') ++count_new;
    }
    out << "@@ -" << at_old[start] << "," << count_old << " +"
        << at_new[start] << "," << count_new << " @@\n";
    for (std::size_t t = start; t < end; ++t) {
      out << ops[t].kind << *ops[t].text << "\n";
    }
    k = last_change + 1;
  }
  return out.str();
}

}  // namespace ddtr::lint
