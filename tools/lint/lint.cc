#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>

#include "deps.h"
#include "scan.h"
#include "support/fnv_hash.h"

namespace ddtr::lint {
namespace {

// Files whose every line is cache-key/fingerprint code: a stray clock or
// pid anywhere in them poisons key purity.
bool determinism_file(const std::string& path) {
  static const char* const files[] = {
      "support/fnv_hash.h",      "support/rng.h",
      "support/rng.cc",          "apps/common/flow_key.h",
      "core/simulation_cache.h", "core/simulation_cache.cc"};
  const std::string p = normalize_path(path);
  return std::any_of(std::begin(files), std::end(files),
                     [&](const char* f) { return p.ends_with(f); });
}

// Functions that produce cache keys or fingerprints wherever they are
// defined; their bodies must be pure.
bool determinism_function(const std::string& name) {
  static const char* const names[] = {
      "content_hash", "fingerprint",    "preset_key",
      "fnv1a64",      "fnv1a64_append", "mix64",
      "five_tuple_key"};
  return std::any_of(std::begin(names), std::end(names),
                     [&](const char* n) { return name == n; });
}

bool decoder_file(const std::string& path) {
  return path_has(path, "serve/protocol") || path_has(path, "support/binary_io");
}

// --- Rule helpers -------------------------------------------------------

struct Matcher {
  std::regex re;
  const char* what;
};

const std::vector<Matcher>& determinism_matchers() {
  static const std::vector<Matcher> m = [] {
    std::vector<Matcher> v;
    v.push_back({std::regex(R"(\brand\s*\()"), "rand()"});
    v.push_back({std::regex(R"(\bsrand\s*\()"), "srand()"});
    v.push_back({std::regex(R"(\btime\s*\()"), "time()"});
    v.push_back({std::regex(R"(system_clock)"), "system_clock"});
    v.push_back({std::regex(R"(\bgetpid\b)"), "getpid()"});
    v.push_back({std::regex(R"(random_device)"), "std::random_device"});
    return v;
  }();
  return m;
}

const std::vector<Matcher>& allocation_matchers() {
  static const std::vector<Matcher> m = [] {
    std::vector<Matcher> v;
    v.push_back({std::regex(R"(\bnew\b)"), "new"});
    v.push_back({std::regex(R"(\bdelete\b)"), "delete"});
    v.push_back({std::regex(R"(\bmalloc\b|\bcalloc\b|\brealloc\b)"),
                 "malloc-family allocation"});
    v.push_back({std::regex(R"(\bfree\s*\()"), "free()"});
    return v;
  }();
  return m;
}

// `= delete;` declares a deleted function; only `delete expr` frees.
bool deleted_function_line(const std::string& line) {
  static const std::regex re(R"(=\s*delete\b)");
  return std::regex_search(line, re);
}

// --- The per-file rules -------------------------------------------------

void rule_header_hygiene(const std::string& path, const Scrubbed& s,
                         std::vector<Finding>& out) {
  if (!is_header_path(path)) return;
  if (s.code.find("#pragma once") == std::string::npos) {
    out.push_back({path, 1, "header-hygiene",
                   "header is missing `#pragma once`",
                   "add `#pragma once` as the first directive"});
  }
  static const std::regex using_ns(R"(\busing\s+namespace\b)");
  for (std::size_t line = 1; line <= s.line_off.size(); ++line) {
    if (std::regex_search(code_line(s, line), using_ns)) {
      out.push_back({path, line, "header-hygiene",
                     "`using namespace` in a header injects the namespace "
                     "into every includer",
                     "qualify the names or move the directive into a .cc"});
    }
  }
}

void rule_allocation_policy(const std::string& path, const Scrubbed& s,
                            std::vector<Finding>& out) {
  if (!path_has(path, "src/ddt/")) return;
  for (std::size_t line = 1; line <= s.line_off.size(); ++line) {
    const std::string text = code_line(s, line);
    for (const Matcher& m : allocation_matchers()) {
      if (!std::regex_search(text, m.re)) continue;
      if (m.what == std::string_view("delete") && deleted_function_line(text))
        continue;
      out.push_back(
          {path, line, "allocation-policy",
           std::string("raw ") + m.what +
               " in src/ddt/ — DDT storage is pool-only",
           "allocate nodes from the slot's support::Pool<T> "
           "(support/arena.h) so footprint accounting stays truthful"});
    }
  }
}

void rule_determinism(const std::string& path, const Scrubbed& s,
                      const std::vector<FuncDef>& defs,
                      const LintConfig& config,
                      std::vector<Finding>& out) {
  // The exempt prefixes (tools/lint/layers.lock `determinism-exempt`)
  // are the sanctioned clock consumers — src/obs/ by default: trace
  // timestamps and wall-clock metadata live there, and nothing in them
  // feeds cache keys. Everywhere keys CAN be built stays strict.
  for (const std::string& prefix : config.determinism_exempt) {
    if (path_has(path, prefix)) return;
  }
  const bool whole_file = determinism_file(path);
  auto check_line = [&](std::size_t line) {
    const std::string text = code_line(s, line);
    for (const Matcher& m : determinism_matchers()) {
      if (!std::regex_search(text, m.re)) continue;
      out.push_back(
          {path, line, "determinism",
           std::string(m.what) +
               " in cache-key/fingerprint code — keys must be pure "
               "functions of their inputs or warm caches silently lie",
           "derive everything from the trace/config/model contents; "
           "unique run tokens belong outside key code"});
    }
  };
  if (whole_file) {
    for (std::size_t line = 1; line <= s.line_off.size(); ++line)
      check_line(line);
    return;
  }
  for (const FuncDef& d : defs) {
    if (!determinism_function(d.name)) continue;
    const std::size_t first = line_of(s, d.body_begin);
    const std::size_t last = line_of(s, d.body_end - 1);
    for (std::size_t line = first; line <= last; ++line) check_line(line);
  }
}

void rule_durability(const std::string& path, const Scrubbed& s,
                     const std::vector<FuncDef>& defs,
                     std::vector<Finding>& out) {
  static const std::regex rename_re(R"(\brename\s*\()");
  for (std::size_t line = 1; line <= s.line_off.size(); ++line) {
    if (!std::regex_search(code_line(s, line), rename_re)) continue;
    const std::size_t offset = s.line_off[line - 1];
    const FuncDef* fn = enclosing_function(defs, offset);
    const std::string body =
        fn != nullptr
            ? s.code.substr(fn->body_begin, fn->body_end - fn->body_begin)
            : s.code;
    const bool has_file = body.find("fsync_file") != std::string::npos;
    const bool has_dir = body.find("fsync_dir") != std::string::npos;
    if (has_file && has_dir) continue;
    std::string missing;
    if (!has_file) missing += "fsync_file";
    if (!has_dir) missing += missing.empty() ? "fsync_dir" : " and fsync_dir";
    out.push_back(
        {path, line, "durability",
         "rename() without " + missing +
             " in the same function — rename alone is not durable",
         "sync the temp file's content (support::fsync_file) before the "
         "rename and the directory entry (support::fsync_dir) after it"});
  }
}

void rule_decoder_safety(const std::string& path, const Scrubbed& s,
                         const std::vector<FuncDef>& defs,
                         std::vector<Finding>& out) {
  const bool read_scope = decoder_file(path);
  for (const FuncDef& d : defs) {
    const bool is_decoder = d.name.rfind("decode_", 0) == 0;
    const bool is_reader = read_scope && d.name.rfind("read_", 0) == 0;
    if (!is_decoder && !is_reader) continue;
    const std::string sig =
        s.code.substr(d.sig_begin, d.body_begin - d.sig_begin);
    const std::size_t first = line_of(s, d.body_begin);
    const std::size_t last = line_of(s, d.body_end - 1);
    for (std::size_t line = first; line <= last; ++line) {
      const std::string text = code_line(s, line);
      if (text.find(".read(") != std::string::npos) {
        const bool checked_here =
            text.find("if") != std::string::npos ||
            text.find("return") != std::string::npos ||
            text.find("static_cast<bool>") != std::string::npos ||
            text.find("gcount") != std::string::npos;
        bool checked_near = checked_here;
        for (std::size_t n = line + 1; !checked_near && n <= last &&
                                       n <= line + 3;
             ++n) {
          checked_near =
              code_line(s, n).find("gcount") != std::string::npos;
        }
        if (!checked_near) {
          out.push_back(
              {path, line, "decoder-safety",
               "unchecked raw stream read in a decoder — a short or torn "
               "input must surface as a failure, never as stale bytes",
               "test the stream (`if (!is.read(...))`) or compare "
               "gcount() against the requested size"});
        }
      }
      if (text.find("memcpy") != std::string::npos &&
          text.find("sizeof") == std::string::npos) {
        out.push_back({path, line, "decoder-safety",
                       "unbounded memcpy in a decoder",
                       "bound every copy with sizeof(...) or a length "
                       "validated against the remaining input"});
      }
      if (text.find("reinterpret_cast") != std::string::npos) {
        out.push_back({path, line, "decoder-safety",
                       "reinterpret_cast in a decoder — parse bytes through "
                       "the checked binary_io readers instead",
                       "use support::read_u32/u64/f64/string"});
      }
    }
    const bool payload_decoder =
        sig.find("std::string& payload") != std::string::npos ||
        sig.find("std::string &payload") != std::string::npos;
    if (is_decoder && payload_decoder) {
      const std::string body =
          s.code.substr(d.body_begin, d.body_end - d.body_begin);
      if (body.find("at_end(") == std::string::npos) {
        out.push_back(
            {path, line_of(s, d.sig_begin), "decoder-safety",
             "payload decoder `" + d.name +
                 "` does not verify exact consumption — trailing bytes are "
                 "as suspect as missing ones",
             "finish every success path with `&& at_end(is)`"});
      }
    }
  }
}

std::vector<Finding> lint_file(const SourceFile& file,
                               const LintConfig& config) {
  std::vector<Finding> out;
  rule_header_hygiene(file.path, file.scrubbed, out);
  rule_allocation_policy(file.path, file.scrubbed, out);
  rule_determinism(file.path, file.scrubbed, file.defs, config, out);
  rule_durability(file.path, file.scrubbed, file.defs, out);
  rule_decoder_safety(file.path, file.scrubbed, file.defs, out);
  out.erase(
      std::remove_if(out.begin(), out.end(),
                     [&](const Finding& f) {
                       return suppressed(file.scrubbed, f);
                     }),
      out.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content,
                                 const LintConfig& config) {
  return lint_file(make_source_file(path, content), config);
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  return lint_source(path, content, LintConfig{});
}

// --- Accounting registry ------------------------------------------------

namespace {

// Appends the normalized text of every marked accounting region of one
// file to the running checksum. Marker comments themselves, blank lines
// and comment-only lines are excluded, so commentary and formatting can
// change freely — only code moves the checksum.
void hash_regions(const std::string& rel_path, const std::string& content,
                  support::Fnv1a64& hasher, std::size_t& regions) {
  const Scrubbed s = scrub(content);
  bool in_region = false;
  bool file_counted = false;
  for (std::size_t line = 1; line <= s.comment.size(); ++line) {
    const std::string& c = s.comment[line - 1];
    if (c.find("ddtr-accounting-begin") != std::string::npos) {
      in_region = true;
      ++regions;
      if (!file_counted) {
        hasher.str(rel_path);
        file_counted = true;
      }
      continue;
    }
    if (c.find("ddtr-accounting-end") != std::string::npos) {
      in_region = false;
      continue;
    }
    if (!in_region) continue;
    const std::string t = trimmed(code_line(s, line));
    if (t.empty()) continue;
    hasher.str(t);
  }
}

}  // namespace

AccountingState read_accounting_state(const std::string& repo_root) {
  namespace fs = std::filesystem;
  AccountingState state;
  const fs::path root(repo_root);

  if (auto kinds = read_file_text((root / "src" / "ddt" / "kinds.h").string())) {
    static const std::regex version_re(
        R"(kDdtAccountingVersion\s*=\s*(\d+))");
    std::smatch m;
    if (std::regex_search(*kinds, m, version_re)) {
      state.version_found = true;
      state.tree_version =
          static_cast<std::uint32_t>(std::stoul(m[1].str()));
    }
  }

  // Marked regions anywhere under src/ (sorted relative paths keep the
  // checksum stable across filesystems).
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root / "src", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp")
      files.push_back(it->path());
  }
  std::vector<std::pair<std::string, fs::path>> rel;
  rel.reserve(files.size());
  for (const fs::path& p : files) {
    rel.emplace_back(normalize_path(fs::relative(p, root, ec).string()), p);
  }
  std::sort(rel.begin(), rel.end());
  support::Fnv1a64 hasher;
  for (const auto& [r, p] : rel) {
    if (auto content = read_file_text(p.string())) {
      hash_regions(r, *content, hasher, state.region_count);
    }
  }
  state.tree_checksum = hasher.digest();

  if (auto lock = read_file_text((root / kAccountingLockPath).string())) {
    state.lock_found = true;
    std::istringstream is(*lock);
    std::string line;
    while (std::getline(is, line)) {
      std::istringstream fields(line);
      std::string key;
      fields >> key;
      if (key == "version") fields >> state.lock_version;
      if (key == "checksum") fields >> std::hex >> state.lock_checksum;
    }
  }
  return state;
}

std::vector<Finding> check_accounting(const AccountingState& state) {
  std::vector<Finding> out;
  const std::string kinds = "src/ddt/kinds.h";
  if (!state.version_found) {
    out.push_back({kinds, 1, "accounting-version",
                   "kDdtAccountingVersion not found in src/ddt/kinds.h",
                   ""});
    return out;
  }
  if (state.region_count == 0) {
    out.push_back({kinds, 1, "accounting-version",
                   "no ddtr-accounting-begin/end regions found under src/ — "
                   "the accounting tables are unguarded",
                   "mark the cost constants and charge sites with "
                   "// ddtr-accounting-begin ... // ddtr-accounting-end"});
    return out;
  }
  if (!state.lock_found) {
    out.push_back({kAccountingLockPath, 1, "accounting-version",
                   "accounting registry missing",
                   "run `ddtr_lint --update-accounting` to record the "
                   "current (version, checksum) pair"});
    return out;
  }
  if (state.tree_checksum == state.lock_checksum &&
      state.tree_version == state.lock_version) {
    return out;
  }
  if (state.tree_version == state.lock_version) {
    out.push_back(
        {kinds, 1, "accounting-version",
         "DDT accounting regions changed but kDdtAccountingVersion did "
         "not — persistent caches would mix numbers produced under "
         "different accounting semantics",
         "bump kDdtAccountingVersion in src/ddt/kinds.h, then run "
         "`ddtr_lint --update-accounting`"});
  } else {
    out.push_back(
        {kAccountingLockPath, 1, "accounting-version",
         "accounting registry is stale (records v" +
             std::to_string(state.lock_version) + ", tree is v" +
             std::to_string(state.tree_version) + ")",
         "run `ddtr_lint --update-accounting` to re-record it"});
  }
  return out;
}

bool update_accounting(const std::string& repo_root, std::string& error) {
  const AccountingState state = read_accounting_state(repo_root);
  if (!state.version_found) {
    error = "kDdtAccountingVersion not found in src/ddt/kinds.h";
    return false;
  }
  if (state.region_count == 0) {
    error = "no ddtr-accounting-begin/end regions found under src/";
    return false;
  }
  if (state.lock_found && state.tree_version == state.lock_version &&
      state.tree_checksum != state.lock_checksum) {
    error =
        "accounting regions changed but kDdtAccountingVersion did not — "
        "bump it in src/ddt/kinds.h before regenerating the registry";
    return false;
  }
  const std::filesystem::path lock =
      std::filesystem::path(repo_root) / kAccountingLockPath;
  std::error_code ec;
  std::filesystem::create_directories(lock.parent_path(), ec);
  std::ofstream os(lock, std::ios::trunc);
  if (!os) {
    error = "cannot write " + lock.string();
    return false;
  }
  os << "# DDT accounting registry — maintained by `ddtr_lint "
        "--update-accounting`.\n"
     << "# The checksum covers every `ddtr-accounting-begin/end` region "
        "under src/\n"
     << "# (cost constants and charge sites). ddtr_lint fails when those "
        "regions\n"
     << "# change without a kDdtAccountingVersion bump: caches must never "
        "mix\n"
     << "# numbers produced under different accounting semantics.\n"
     << "version " << state.tree_version << "\n"
     << "checksum " << std::hex << state.tree_checksum << std::dec << "\n"
     << "regions " << state.region_count << "\n";
  return os.good();
}

// --- Driver -------------------------------------------------------------

namespace {

// One full analysis over the scanned tree: per-file rules and the
// dependency/layering pass, with suppressions applied to everything.
std::vector<Finding> collect_findings(const std::vector<SourceFile>& files,
                                      const LintConfig& config,
                                      const LayerContract& contract) {
  std::vector<Finding> findings;
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) {
    by_path[f.path] = &f;
    std::vector<Finding> per = lint_file(f, config);
    findings.insert(findings.end(), per.begin(), per.end());
  }

  std::vector<Finding> deps = analyze_dependencies(files, contract);
  // The whole-program pass emits raw findings; honor suppressions here.
  deps.erase(std::remove_if(deps.begin(), deps.end(),
                            [&](const Finding& f) {
                              return suppressed(by_path.at(f.path)->scrubbed,
                                                f);
                            }),
             deps.end());
  findings.insert(findings.end(), deps.begin(), deps.end());

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.path, a.line) <
                            std::tie(b.path, b.line);
                   });
  return findings;
}

}  // namespace

std::size_t run_lint(const RunOptions& options, std::ostream& out) {
  namespace fs = std::filesystem;

  // The layer contract doubles as the lint config (determinism
  // exemptions live in the same lock file).
  std::string layers_error;
  LayerContract contract;
  if (!options.repo_root.empty()) {
    contract = load_layers(options.repo_root, &layers_error);
  } else {
    contract.determinism_exempt.push_back("src/obs/");
  }
  LintConfig config;
  config.determinism_exempt = contract.determinism_exempt;

  std::vector<fs::path> paths;
  for (const std::string& root : options.roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp")
          paths.push_back(it->path());
      }
    } else if (fs::exists(root, ec)) {
      paths.emplace_back(root);
    } else {
      out << "ddtr_lint: warning: no such path: " << root << "\n";
    }
  }
  std::sort(paths.begin(), paths.end());

  // Scan once; every pass shares the records. Paths are normalized to
  // be repo-relative so rule scopes and the module graph line up no
  // matter how the roots were spelled.
  std::vector<SourceFile> files;
  std::set<std::string> seen;
  const fs::path root_path(options.repo_root.empty() ? "."
                                                     : options.repo_root);
  for (const fs::path& p : paths) {
    std::error_code ec;
    std::string rel = normalize_path(fs::proximate(p, root_path, ec).string());
    if (ec || rel.empty() || rel.rfind("..", 0) == 0) {
      rel = normalize_path(p.string());
    }
    if (!seen.insert(rel).second) continue;
    if (auto content = read_file_text(p.string())) {
      files.push_back(make_source_file(rel, *content));
    } else {
      out << "ddtr_lint: warning: cannot read " << p.string() << "\n";
    }
  }

  std::vector<Finding> findings = collect_findings(files, config, contract);
  if (!layers_error.empty()) {
    findings.insert(findings.begin(),
                    {kLayersLockPath, 1, "layering", layers_error,
                     "fix the contract file; the layering pass is "
                     "skipped until it parses"});
  }

  if (!options.repo_root.empty()) {
    if (options.update_accounting) {
      std::string error;
      if (!update_accounting(options.repo_root, error)) {
        findings.push_back(
            {kAccountingLockPath, 1, "accounting-version", error, ""});
      }
    }
    std::vector<Finding> f =
        check_accounting(read_accounting_state(options.repo_root));
    findings.insert(findings.end(), f.begin(), f.end());
  }

  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    if (!f.fixit.empty()) out << "    hint: " << f.fixit << "\n";
  }
  out << "ddtr_lint: " << findings.size() << " finding(s) in "
      << files.size() << " file(s) scanned\n";
  return findings.size();
}

}  // namespace ddtr::lint
