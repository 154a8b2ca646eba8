// ddtr_lint — the project's own invariants as machine-checked rules.
//
// The repository's correctness story rests on a handful of conventions
// that no general-purpose tool knows about: cache keys must be pure
// functions of their inputs, decoders must bounds-check untrusted bytes
// and consume them exactly, every temp+rename must be fsync-paired, DDT
// nodes must come from the arena pool, and the accounting version must
// move whenever the accounting tables do. This linter encodes each of
// those as a named, suppressible rule over a token/line-level scan of
// the tree — no libclang, no compile database, fast enough to run as an
// ordinary ctest on every build.
//
// Rules (suppress one occurrence with `// ddtr-lint: allow(<rule>)` on
// the same or the preceding line; a whole file with
// `// ddtr-lint: allow-file(<rule>)` anywhere in it):
//
//   decoder-safety     decode_* functions (and the read_* primitives in
//                      support/binary_io, serve/protocol) must check
//                      every raw stream read and, for payload decoders,
//                      verify exact consumption via at_end().
//   durability         a function that calls rename() must also call
//                      support::fsync_file AND support::fsync_dir —
//                      rename alone is not durable.
//   allocation-policy  no raw new/delete/malloc/free in src/ddt/: DDT
//                      nodes are pool-only (support::Pool<T>).
//   determinism        no rand()/time()/system_clock/getpid()/
//                      random_device in cache-key or fingerprint code —
//                      whole key files, and the bodies of key functions
//                      (content_hash, fingerprint, preset_key, ...)
//                      anywhere in the tree.
//   accounting-version a checksum registry (tools/lint/accounting.lock)
//                      over all `ddtr-accounting-begin/end` regions must
//                      match the tree, and kDdtAccountingVersion must be
//                      bumped before the registry may be regenerated.
//   header-hygiene     headers use `#pragma once` and never
//                      `using namespace` at any scope.
//
// Two whole-program passes run over the same scanner core (deps.h):
//
//   layering           every src/ module's include edges must be
//                      declared in tools/lint/layers.lock.
//   include-cycle      no cycle through project includes.
//
// Include hygiene and lock order are deliberately not rules. An unused,
// misordered or transitively reached include builds warning-clean and
// leaves every record byte-identical, so no contract rides on it. Lock
// order is TSan's: its deadlock detector sees every inversion the
// threaded suites execute, across files and call chains, where a scan
// of one file sees only nested guards within it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ddtr::lint {

struct Finding {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
  std::string fixit;  // optional remediation hint
};

// Knobs the per-file rules read. Defaults match a tree without a
// layers.lock; the driver overrides them from the contract file so new
// subsystems never require a linter edit.
struct LintConfig {
  // Path prefixes exempt from the determinism rule (`determinism-exempt`
  // lines in tools/lint/layers.lock).
  std::vector<std::string> determinism_exempt = {"src/obs/"};
};

// Lints one source file given its contents (the path decides which rule
// scopes apply — unit tests feed synthetic paths). Purely functional: no
// filesystem access, deterministic output order (by line).
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content,
                                 const LintConfig& config);

// --- Accounting version coupling ---------------------------------------

// Everything the accounting-version rule derives from a tree: the
// current kDdtAccountingVersion (parsed from src/ddt/kinds.h), the
// FNV-1a checksum over every marked accounting region, and the pair
// recorded in tools/lint/accounting.lock.
struct AccountingState {
  std::uint32_t tree_version = 0;
  std::uint64_t tree_checksum = 0;
  std::uint32_t lock_version = 0;
  std::uint64_t lock_checksum = 0;
  bool lock_found = false;
  bool version_found = false;
  std::size_t region_count = 0;
};

// Relative path of the registry within a repo root.
inline constexpr const char* kAccountingLockPath = "tools/lint/accounting.lock";

// Computes the accounting state of the tree rooted at `repo_root`
// (reads every marked region under src/, and the lock file).
AccountingState read_accounting_state(const std::string& repo_root);

// The accounting-version rule over a precomputed state. Split from the
// filesystem so tests can exercise every outcome.
std::vector<Finding> check_accounting(const AccountingState& state);

// Rewrites the registry for the current tree. Refuses (returns false
// with `error` set) when the accounting regions changed but
// kDdtAccountingVersion did not — the bump must come first; the registry
// only ever records a (version, checksum) pair that moved together.
bool update_accounting(const std::string& repo_root, std::string& error);

// --- Driver -------------------------------------------------------------

struct RunOptions {
  std::vector<std::string> roots;  // files or directories to scan
  std::string repo_root;  // for the registries + whole-program passes;
                          // "" skips both
  bool update_accounting = false;
};

// Scans every *.h/*.cc/*.cpp under the roots once, runs the per-file
// rules plus the whole-program passes (layering and include cycles over
// src/, the accounting registry), prints findings to `out`, and returns
// the number of findings (0 means a clean tree).
std::size_t run_lint(const RunOptions& options, std::ostream& out);

}  // namespace ddtr::lint
