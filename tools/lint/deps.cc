#include "deps.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>

namespace ddtr::lint {

std::optional<LayerContract> parse_layers(const std::string& text,
                                          std::string* error) {
  LayerContract contract;
  contract.loaded = true;
  std::istringstream is(text);
  std::string raw;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "layers.lock:" + std::to_string(lineno) + ": " + what;
    }
    return std::nullopt;
  };
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
        return fail("expected `layer <name> : [deps...]`");
      }
      auto& deps = contract.allowed[name];
      std::string dep;
      while (fields >> dep) deps.insert(dep);
    } else if (directive == "determinism-exempt") {
      std::string prefix;
      fields >> prefix;
      if (prefix.empty()) {
        return fail("expected `determinism-exempt <path-prefix>`");
      }
      contract.determinism_exempt.push_back(normalize_path(prefix));
    } else {
      return fail("unknown directive `" + directive + "`");
    }
  }
  return contract;
}

LayerContract load_layers(const std::string& repo_root, std::string* error) {
  const std::filesystem::path lock =
      std::filesystem::path(repo_root) / kLayersLockPath;
  std::optional<LayerContract> parsed;
  if (const auto text = read_file_text(lock.string())) {
    parsed = parse_layers(*text, error);
  }
  if (parsed) return *parsed;
  LayerContract contract;  // loaded=false: the layering pass skips
  contract.determinism_exempt.push_back("src/obs/");
  return contract;
}

namespace {

// Module of a repo-relative path: "src/core/explorer.cc" → "core",
// "" when not under src/.
std::string module_of(const std::string& rel_path) {
  const std::string p = normalize_path(rel_path);
  if (p.rfind("src/", 0) != 0) return "";
  const std::size_t slash = p.find('/', 4);
  if (slash == std::string::npos) return "";
  return p.substr(4, slash - 4);
}

// Repo-relative path a quoted include resolves to ("core/explorer.h" →
// "src/core/explorer.h"). Angle includes are system headers — not ours.
std::string resolve_include(const std::string& target) {
  return "src/" + normalize_path(target);
}

struct Graph {
  std::map<std::string, const SourceFile*> by_path;
  // Direct project-include edges (resolved, present in the file set).
  std::map<std::string, std::vector<std::string>> edges;
};

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

}  // namespace

std::vector<Finding> analyze_dependencies(const std::vector<SourceFile>& files,
                                          const LayerContract& contract) {
  std::vector<Finding> findings;
  if (!contract.loaded) return findings;
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
  check_layering(g, contract, findings);
  check_cycles(g, findings);
  return findings;
}

}  // namespace ddtr::lint
