#include "deps.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <sstream>

namespace ddtr::lint {
namespace {

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool dep_keyword(std::string_view id) {
  static const char* const kw[] = {
      "if",      "for",      "while",    "switch",        "return",
      "sizeof",  "alignof",  "decltype", "static_assert", "assert",
      "catch",   "defined",  "noexcept", "requires",      "operator",
      "throw",   "new",      "delete",   "alignas",       "explicit",
      "typename"};
  return std::any_of(std::begin(kw), std::end(kw),
                     [&](const char* k) { return id == k; });
}

// Lines that are preprocessor directives (token walks skip them; #define
// is harvested separately).
std::vector<bool> preprocessor_lines(const Scrubbed& s) {
  std::vector<bool> pp(s.line_off.size() + 1, false);
  for (std::size_t line = 1; line <= s.line_off.size(); ++line) {
    const std::string text = code_line(s, line);
    const auto b = text.find_first_not_of(" \t");
    if (b != std::string::npos && text[b] == '#') pp[line] = true;
  }
  return pp;
}

}  // namespace

std::string module_of(const std::string& rel_path) {
  const std::string p = normalize_path(rel_path);
  if (p.rfind("src/", 0) != 0) return "";
  const std::size_t slash = p.find('/', 4);
  if (slash == std::string::npos) return "";
  return p.substr(4, slash - 4);
}

std::string resolve_include(const std::string& target) {
  return "src/" + normalize_path(target);
}

std::optional<LayerContract> parse_layers(const std::string& text,
                                          std::string* error) {
  LayerContract contract;
  contract.loaded = true;
  std::istringstream is(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trimmed(line);
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string directive;
    fields >> directive;
    if (directive == "layer") {
      std::string name, colon;
      fields >> name >> colon;
      if (name.empty() || colon != ":") {
        if (error != nullptr) {
          *error = "layers.lock:" + std::to_string(lineno) +
                   ": expected `layer <name> : [deps...]`";
        }
        return std::nullopt;
      }
      auto& deps = contract.allowed[name];
      std::string dep;
      while (fields >> dep) deps.insert(dep);
    } else if (directive == "umbrella") {
      std::string path;
      fields >> path;
      if (path.empty()) {
        if (error != nullptr) {
          *error = "layers.lock:" + std::to_string(lineno) +
                   ": expected `umbrella <repo-relative-header>`";
        }
        return std::nullopt;
      }
      contract.umbrella.insert(normalize_path(path));
    } else if (directive == "determinism-exempt") {
      std::string prefix;
      fields >> prefix;
      if (prefix.empty()) {
        if (error != nullptr) {
          *error = "layers.lock:" + std::to_string(lineno) +
                   ": expected `determinism-exempt <path-prefix>`";
        }
        return std::nullopt;
      }
      contract.determinism_exempt.push_back(normalize_path(prefix));
    } else {
      if (error != nullptr) {
        *error = "layers.lock:" + std::to_string(lineno) +
                 ": unknown directive `" + directive + "`";
      }
      return std::nullopt;
    }
  }
  return contract;
}

LayerContract load_layers(const std::string& repo_root, std::string* error) {
  const std::filesystem::path lock =
      std::filesystem::path(repo_root) / kLayersLockPath;
  const auto text = read_file_text(lock.string());
  if (!text) {
    LayerContract contract;  // loaded=false: passes that need it skip
    contract.determinism_exempt.push_back("src/obs/");
    return contract;
  }
  auto parsed = parse_layers(*text, error);
  if (!parsed) {
    LayerContract contract;
    contract.determinism_exempt.push_back("src/obs/");
    return contract;
  }
  return *parsed;
}

std::set<std::string> provided_names(const SourceFile& file) {
  std::set<std::string> names;
  const Scrubbed& s = file.scrubbed;
  const std::string& code = s.code;
  const std::vector<bool> pp = preprocessor_lines(s);

  // #define'd macros.
  for (std::size_t line = 1; line <= s.line_off.size(); ++line) {
    if (!pp[line]) continue;
    std::string text = code_line(s, line);
    std::size_t p = text.find('#');
    p = text.find_first_not_of(" \t", p + 1);
    if (p == std::string::npos || text.compare(p, 6, "define") != 0) continue;
    p = text.find_first_not_of(" \t", p + 6);
    if (p == std::string::npos) continue;
    std::size_t e = p;
    while (e < text.size() && ident_char(text[e])) ++e;
    if (e > p) names.insert(text.substr(p, e - p));
  }

  // Token walk at namespace-transparent depth. Class/struct braces are
  // opaque: members are reached through the type, not by bare name.
  std::vector<bool> opaque;  // per open brace
  std::vector<std::string> stmt;  // tokens of the current statement
  std::string prev_ident;
  const auto transparent = [&] {
    return std::none_of(opaque.begin(), opaque.end(),
                        [](bool b) { return b; });
  };
  const auto stmt_has = [&](std::string_view t) {
    return std::any_of(stmt.begin(), stmt.end(),
                       [&](const std::string& x) { return x == t; });
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (pp[line_of(s, i)]) continue;
    if (ident_char(c)) {
      if (i > 0 && ident_char(code[i - 1])) continue;
      std::size_t e = i;
      while (e < code.size() && ident_char(code[e])) ++e;
      const std::string tok = code.substr(i, e - i);
      if (tok == "template") {
        // Skip the parameter list: `template <class T>` must not read
        // as a provided class named T.
        std::size_t j = e;
        while (j < code.size() &&
               std::isspace(static_cast<unsigned char>(code[j])))
          ++j;
        if (j < code.size() && code[j] == '<') {
          int d = 0;
          for (; j < code.size(); ++j) {
            if (code[j] == '<') ++d;
            if (code[j] == '>' && --d == 0) break;
          }
          i = j;
          continue;
        }
      }
      if (transparent()) {
        // Type names: `class X` / `struct X` / `enum [class] X` /
        // `union X` (definitions and forward declarations alike).
        if (!stmt.empty() && !dep_keyword(tok) &&
            !std::isdigit(static_cast<unsigned char>(tok[0]))) {
          const std::string& last = stmt.back();
          if ((last == "class" || last == "struct" || last == "enum" ||
               last == "union") &&
              tok != "class" && tok != "struct") {
            names.insert(tok);
          }
        }
        // Function names: identifier directly followed by '(' and not
        // qualified (a `std::foo(...)` in an initializer is a use).
        std::size_t j = e;
        while (j < code.size() &&
               std::isspace(static_cast<unsigned char>(code[j])))
          ++j;
        if (j < code.size() && code[j] == '(' && !dep_keyword(tok) &&
            !std::isdigit(static_cast<unsigned char>(tok[0])) &&
            !(i > 0 && code[i - 1] == ':') && !stmt_has("using") &&
            !stmt_has("enum")) {
          names.insert(tok);
        }
      }
      stmt.push_back(tok);
      prev_ident = tok;
      i = e - 1;
      continue;
    }
    switch (c) {
      case '=':
        if (transparent() && !prev_ident.empty() && !dep_keyword(prev_ident) &&
            (stmt_has("using") || stmt_has("constexpr") ||
             stmt_has("extern") || stmt_has("typedef"))) {
          names.insert(prev_ident);
        }
        break;
      case '{': {
        const bool transparent_brace =
            stmt_has("namespace") || stmt_has("extern");
        opaque.push_back(!transparent_brace);
        stmt.clear();
        prev_ident.clear();
        break;
      }
      case '}':
        if (!opaque.empty()) opaque.pop_back();
        stmt.clear();
        prev_ident.clear();
        break;
      case ';':
        if (transparent() && !prev_ident.empty() && stmt_has("typedef") &&
            !dep_keyword(prev_ident)) {
          names.insert(prev_ident);
        }
        stmt.clear();
        prev_ident.clear();
        break;
      default:
        break;
    }
  }
  return names;
}

namespace {

// Identifier tokens appearing in a file's code view, excluding include
// lines — the usage side of the IWYU checks. `any` is every appearance;
// `unqualified` drops tokens reached through `.`, `->` or `::` (in
// `str.npos` or `std::to_string` the dependency is the receiver or the
// namespace, not the member name itself).
struct UsedIdents {
  std::set<std::string> any;
  std::set<std::string> unqualified;
};

UsedIdents used_idents(const SourceFile& file) {
  UsedIdents out;
  const Scrubbed& s = file.scrubbed;
  std::vector<bool> skip(s.line_off.size() + 1, false);
  for (const IncludeDirective& inc : file.includes) skip[inc.line] = true;
  const std::string& code = s.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!ident_char(code[i]) || (i > 0 && ident_char(code[i - 1]))) continue;
    std::size_t e = i;
    while (e < code.size() && ident_char(code[e])) ++e;
    if (!skip[line_of(s, i)] &&
        !std::isdigit(static_cast<unsigned char>(code[i]))) {
      std::string tok = code.substr(i, e - i);
      std::size_t back = i;
      while (back > 0 && (code[back - 1] == ' ' || code[back - 1] == '\t' ||
                          code[back - 1] == '\n')) {
        --back;
      }
      const bool qualified =
          back > 0 && (code[back - 1] == '.' || code[back - 1] == ':' ||
                       (back > 1 && code[back - 2] == '-' &&
                        code[back - 1] == '>'));
      if (!qualified) out.unqualified.insert(tok);
      out.any.insert(std::move(tok));
    }
    i = e - 1;
  }
  return out;
}

std::string primary_header_of(const std::string& rel_path) {
  const std::string p = normalize_path(rel_path);
  const std::size_t dot = p.rfind('.');
  if (dot == std::string::npos) return "";
  const std::string ext = p.substr(dot);
  if (ext != ".cc" && ext != ".cpp") return "";
  return p.substr(0, dot) + ".h";
}

struct Graph {
  std::map<std::string, const SourceFile*> by_path;
  // Direct project-include edges (resolved, present in the file set).
  std::map<std::string, std::vector<std::string>> edges;
};

// All files reachable from `path` through project includes (excluding
// `path` itself unless it is in a cycle).
const std::set<std::string>& closure_of(
    const Graph& g, const std::string& path,
    std::map<std::string, std::set<std::string>>& memo) {
  auto it = memo.find(path);
  if (it != memo.end()) return it->second;
  // Seed the memo first so include cycles terminate (the cycle pass
  // reports them; here we only need reachability to converge).
  auto& out = memo[path];
  auto edge_it = g.edges.find(path);
  if (edge_it == g.edges.end()) return out;
  for (const std::string& next : edge_it->second) {
    out.insert(next);
  }
  // Iterate to fixpoint over the partial sets (handles cycles without
  // recursion-order sensitivity).
  bool grew = true;
  while (grew) {
    grew = false;
    std::set<std::string> add;
    for (const std::string& n : out) {
      auto ne = g.edges.find(n);
      if (ne == g.edges.end()) continue;
      for (const std::string& nn : ne->second) {
        if (out.find(nn) == out.end()) add.insert(nn);
      }
    }
    for (const std::string& a : add) out.insert(a);
    grew = !add.empty();
  }
  return out;
}

void check_layering(const Graph& g, const LayerContract& contract,
                    std::vector<Finding>& out) {
  for (const auto& [path, file] : g.by_path) {
    const std::string mod = module_of(path);
    if (mod.empty()) continue;
    const auto allowed_it = contract.allowed.find(mod);
    if (allowed_it == contract.allowed.end()) {
      out.push_back({path, 1, "layering",
                     "module `" + mod +
                         "` is not declared in tools/lint/layers.lock",
                     "add a `layer " + mod +
                         " : <deps>` line to the contract"});
      continue;
    }
    for (const IncludeDirective& inc : file->includes) {
      if (inc.angle) continue;
      const std::string dep = module_of(resolve_include(inc.target));
      if (dep.empty() || dep == mod) continue;
      if (allowed_it->second.count(dep) != 0) continue;
      out.push_back(
          {path, inc.line, "layering",
           "module `" + mod + "` may not include `" + dep + "` (\"" +
               inc.target + "\") — tools/lint/layers.lock does not " +
               "declare the edge",
           "invert the dependency or, if the edge is intended, add `" +
               dep + "` to the `layer " + mod + "` line"});
    }
  }
}

void check_cycles(const Graph& g, std::vector<Finding>& out) {
  // Iterative DFS with colors; each cycle reported once, rotated so the
  // lexicographically smallest path leads (deterministic output).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    color[v] = 1;
    stack.push_back(v);
    auto it = g.edges.find(v);
    if (it != g.edges.end()) {
      for (const std::string& next : it->second) {
        if (color[next] == 2) continue;
        if (color[next] == 1) {
          auto begin =
              std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(begin, stack.end());
          auto smallest = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), smallest, cycle.end());
          std::string chain;
          for (const std::string& p : cycle) chain += p + " -> ";
          chain += cycle.front();
          if (reported.insert(chain).second) {
            const SourceFile* head = g.by_path.at(cycle.front());
            std::size_t line = 1;
            const std::string want = cycle.size() > 1
                                         ? cycle[1]
                                         : cycle.front();
            for (const IncludeDirective& inc : head->includes) {
              if (!inc.angle && resolve_include(inc.target) == want) {
                line = inc.line;
                break;
              }
            }
            out.push_back({cycle.front(), line, "include-cycle",
                           "include cycle: " + chain,
                           "break the cycle with a forward declaration "
                           "or by splitting the header"});
          }
          continue;
        }
        dfs(next);
      }
    }
    stack.pop_back();
    color[v] = 2;
  };
  for (const auto& [path, file] : g.by_path) {
    (void)file;
    if (color[path] == 0) dfs(path);
  }
}

void check_iwyu(const Graph& g, const LayerContract& contract,
                DepAnalysis& analysis) {
  std::map<std::string, std::set<std::string>> provided;  // per header
  std::map<std::string, std::set<std::string>> own;       // every file
  std::map<std::string, UsedIdents> used_map;
  std::map<std::string, std::set<std::string>> closure_memo;
  for (const auto& [path, file] : g.by_path) {
    own[path] = provided_names(*file);
    used_map[path] = used_idents(*file);
    if (is_header_path(path)) provided[path] = own[path];
  }
  // name -> headers that provide it (for transitive-leak uniqueness).
  std::map<std::string, std::set<std::string>> providers;
  for (const auto& [path, names] : provided) {
    for (const std::string& n : names) providers[n].insert(path);
  }
  const auto closure_names = [&](const std::string& header) {
    std::set<std::string> names = provided.count(header) != 0
                                      ? provided[header]
                                      : std::set<std::string>{};
    for (const std::string& h : closure_of(g, header, closure_memo)) {
      auto it = provided.find(h);
      if (it == provided.end()) continue;
      names.insert(it->second.begin(), it->second.end());
    }
    return names;
  };

  for (const auto& [path, file] : g.by_path) {
    if (contract.umbrella.count(path) != 0) continue;
    const UsedIdents& used_in_file = used_map.at(path);
    const std::set<std::string>& used = used_in_file.any;
    const std::string primary = primary_header_of(path);
    const std::set<std::string>& self = own.at(path);

    // The set of direct, unconditional project includes under analysis.
    struct Direct {
      const IncludeDirective* inc;
      std::string resolved;
    };
    std::vector<Direct> direct;
    for (const IncludeDirective& inc : file->includes) {
      if (inc.angle) continue;
      const std::string resolved = resolve_include(inc.target);
      if (g.by_path.count(resolved) == 0) continue;
      direct.push_back({&inc, resolved});
    }

    // Names already covered by the file's declared structure: its own
    // provisions, every direct include's own provisions, and the full
    // closures of the primary header and of any included umbrella.
    std::set<std::string> covered = self;
    for (const Direct& d : direct) {
      auto it = provided.find(d.resolved);
      if (it == provided.end()) continue;
      covered.insert(it->second.begin(), it->second.end());
    }
    if (!primary.empty() && g.by_path.count(primary) != 0) {
      const std::set<std::string> names = closure_names(primary);
      covered.insert(names.begin(), names.end());
    }
    for (const Direct& d : direct) {
      if (contract.umbrella.count(d.resolved) == 0) continue;
      const std::set<std::string> names = closure_names(d.resolved);
      covered.insert(names.begin(), names.end());
    }

    // include-unused: a direct include is removable when none of its own
    // names are used AND everything its closure contributes is still
    // reachable through the remaining includes.
    for (const Direct& d : direct) {
      if (d.inc->conditional) continue;
      if (d.resolved == primary) continue;
      if (contract.umbrella.count(d.resolved) != 0) continue;
      auto it = provided.find(d.resolved);
      if (it == provided.end() || it->second.empty()) continue;
      bool directly_used = false;
      for (const std::string& n : it->second) {
        if (used.count(n) != 0) {
          directly_used = true;
          break;
        }
      }
      if (directly_used) continue;
      // Removal safety: closure names that ARE used must survive via the
      // other includes (or the file's own definitions).
      std::set<std::string> survivors = self;
      if (!primary.empty() && g.by_path.count(primary) != 0) {
        const std::set<std::string> names = closure_names(primary);
        survivors.insert(names.begin(), names.end());
      }
      for (const Direct& other : direct) {
        if (other.inc == d.inc) continue;
        const std::set<std::string> names = closure_names(other.resolved);
        survivors.insert(names.begin(), names.end());
      }
      bool safe = true;
      for (const std::string& n : closure_names(d.resolved)) {
        if (used.count(n) != 0 && survivors.count(n) == 0) {
          safe = false;
          break;
        }
      }
      if (!safe) continue;
      // Whole-program safety: a downstream file may reach d.resolved
      // only through this edge (a .cc leaning on its header's includes,
      // say). Simulate the removal and require every name each affected
      // file uses to stay reachable.
      Graph trimmed;
      trimmed.by_path = g.by_path;
      trimmed.edges = g.edges;
      auto& trimmed_out = trimmed.edges[path];
      trimmed_out.erase(
          std::remove(trimmed_out.begin(), trimmed_out.end(), d.resolved),
          trimmed_out.end());
      std::map<std::string, std::set<std::string>> trimmed_memo;
      for (const auto& [fpath, ffile] : g.by_path) {
        (void)ffile;
        if (!safe) break;
        if (fpath == path) continue;
        const std::set<std::string>& with =
            closure_of(g, fpath, closure_memo);
        if (with.count(path) == 0) continue;
        const std::set<std::string>& without =
            closure_of(trimmed, fpath, trimmed_memo);
        std::set<std::string> still = own.at(fpath);
        for (const std::string& h : without) {
          auto pit = provided.find(h);
          if (pit == provided.end()) continue;
          still.insert(pit->second.begin(), pit->second.end());
        }
        const std::set<std::string>& fused = used_map.at(fpath).any;
        for (const std::string& h : with) {
          if (without.count(h) != 0) continue;
          auto pit = provided.find(h);
          if (pit == provided.end()) continue;
          for (const std::string& n : pit->second) {
            if (fused.count(n) != 0 && still.count(n) == 0) {
              safe = false;
              break;
            }
          }
          if (!safe) break;
        }
      }
      if (!safe) continue;
      analysis.findings.push_back(
          {path, d.inc->line, "include-unused",
           "\"" + d.inc->target + "\" is included but none of its names "
           "are used here",
           "remove the include (autofixable: `ddtr_lint --fix`)"});
      analysis.removable[path].insert(d.inc->line);
    }

    // include-transitive: a used name that is NOT covered but is
    // uniquely provided by one reachable header should be included
    // directly.
    std::set<std::string> reachable;
    for (const Direct& d : direct) {
      reachable.insert(d.resolved);
      const std::set<std::string>& c =
          closure_of(g, d.resolved, closure_memo);
      reachable.insert(c.begin(), c.end());
    }
    std::set<std::string> suggested;
    for (const std::string& n : used_in_file.unqualified) {
      if (covered.count(n) != 0) continue;
      auto prov_it = providers.find(n);
      if (prov_it == providers.end() || prov_it->second.size() != 1)
        continue;
      const std::string& header = *prov_it->second.begin();
      if (header == path || header == primary) continue;
      if (reachable.count(header) == 0) continue;
      bool already_direct = false;
      for (const Direct& d : direct) {
        if (d.resolved == header) {
          already_direct = true;
          break;
        }
      }
      if (already_direct) continue;
      if (!suggested.insert(header).second) continue;
      // Anchor the finding at the first use of the name.
      std::size_t line = 1;
      const Scrubbed& s = file->scrubbed;
      for (std::size_t ln = 1; ln <= s.line_off.size(); ++ln) {
        const std::string text = code_line(s, ln);
        std::size_t pos = text.find(n);
        while (pos != std::string::npos) {
          const bool lb = pos == 0 || !ident_char(text[pos - 1]);
          const bool rb = pos + n.size() >= text.size() ||
                          !ident_char(text[pos + n.size()]);
          if (lb && rb) break;
          pos = text.find(n, pos + 1);
        }
        if (pos != std::string::npos) {
          line = ln;
          break;
        }
      }
      analysis.findings.push_back(
          {path, line, "include-transitive",
           "`" + n + "` comes transitively from \"" +
               header.substr(4) + "\" — include it directly",
           "add `#include \"" + header.substr(4) +
               "\"` so the dependency survives refactors of the "
               "middleman header"});
    }
  }
}

}  // namespace

DepAnalysis analyze_dependencies(const std::vector<SourceFile>& files,
                                 const LayerContract& contract) {
  DepAnalysis analysis;
  if (!contract.loaded) return analysis;
  Graph g;
  for (const SourceFile& f : files) {
    if (module_of(f.path).empty()) continue;
    g.by_path[f.path] = &f;
  }
  for (const auto& [path, file] : g.by_path) {
    auto& out = g.edges[path];
    for (const IncludeDirective& inc : file->includes) {
      if (inc.angle) continue;
      const std::string resolved = resolve_include(inc.target);
      if (g.by_path.count(resolved) != 0) out.push_back(resolved);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  check_layering(g, contract, analysis.findings);
  check_cycles(g, analysis.findings);
  check_iwyu(g, contract, analysis);
  return analysis;
}

std::optional<std::vector<std::string>> compile_commands_files(
    const std::string& path, const std::string& repo_root) {
  const auto text = read_file_text(path);
  if (!text) return std::nullopt;
  std::vector<std::string> files;
  std::string root = normalize_path(repo_root);
  if (!root.empty() && root.back() != '/') root += '/';
  std::error_code ec;
  const std::string abs_root = normalize_path(
      std::filesystem::weakly_canonical(repo_root, ec).string());
  std::size_t pos = 0;
  const std::string key = "\"file\"";
  while ((pos = text->find(key, pos)) != std::string::npos) {
    pos += key.size();
    pos = text->find('"', text->find(':', pos));
    if (pos == std::string::npos) break;
    const std::size_t end = text->find('"', pos + 1);
    if (end == std::string::npos) break;
    std::string file = normalize_path(text->substr(pos + 1, end - pos - 1));
    // Make repo-relative when the entry is inside the root.
    for (const std::string& prefix :
         {abs_root + "/", root}) {
      if (!prefix.empty() && prefix != "/" && file.rfind(prefix, 0) == 0) {
        file = file.substr(prefix.size());
        break;
      }
    }
    files.push_back(std::move(file));
    pos = end + 1;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace ddtr::lint
