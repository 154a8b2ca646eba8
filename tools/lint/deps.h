// The dependency/layering analyzer — ddtr_lint's whole-program pass.
//
// Per-file rules catch local hazards; architectural rot is global. This
// pass parses every `#include` edge across src/, maps files to modules
// (the first component of the quoted include path: "core/explorer.h" →
// core), and enforces the layering contract declared in
// tools/lint/layers.lock:
//
//   layering            a module may only include modules its `layer`
//                       line lists (the contract is explicit, not
//                       inferred — adding a dependency is an edit to a
//                       checked-in file, reviewed like the accounting
//                       registry).
//   include-cycle       no cycle through quoted includes, ever.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "scan.h"

namespace ddtr::lint {

// Relative path of the layering contract within a repo root.
inline constexpr const char* kLayersLockPath = "tools/lint/layers.lock";

// The parsed tools/lint/layers.lock contract.
struct LayerContract {
  bool loaded = false;  // false → the layering pass is skipped
  // module → modules it may depend on (absence of a module means any
  // file in it fails layering until the contract names it).
  std::map<std::string, std::set<std::string>> allowed;
  // Path prefixes carved out of the determinism rule (e.g. "src/obs/").
  std::vector<std::string> determinism_exempt;
};

// Parses the lock-file text. Returns nullopt (with `error` set) on a
// malformed line; unknown directives are errors too, so typos fail loud.
std::optional<LayerContract> parse_layers(const std::string& text,
                                          std::string* error);

// Reads and parses <repo_root>/tools/lint/layers.lock; a missing file
// yields a default contract with loaded=false.
LayerContract load_layers(const std::string& repo_root, std::string* error);

// Runs the layering + include-cycle checks over the src/ files among
// `files` (others are ignored).
// Suppressions are NOT applied here — run_lint applies them.
std::vector<Finding> analyze_dependencies(const std::vector<SourceFile>& files,
                                          const LayerContract& contract);

}  // namespace ddtr::lint
