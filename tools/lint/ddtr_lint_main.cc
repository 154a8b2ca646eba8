// Entry point of the project linter: the `lint` ctest, the CI lint job
// and pre-commit hooks all run this binary, which needs nothing but the
// lint sources themselves.
#include <iostream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

int usage() {
  std::cerr
      << "usage: ddtr_lint [--repo-root DIR] [--update-accounting]\n"
         "                 [--fix [--dry-run]] [--diff REF]\n"
         "                 [--compile-commands FILE] [PATH ...]\n"
         "  Scans every *.h/*.cc/*.cpp under the given files/directories\n"
         "  (default: src tests tools bench under the repo root) against\n"
         "  the project's invariant rules, the layering/include and\n"
         "  lock-order whole-program passes, and the accounting-version\n"
         "  registry check. Exits 1 when anything is found.\n"
         "  --repo-root DIR       tree containing src/ and tools/lint/\n"
         "                        (default: .)\n"
         "  --update-accounting   re-record tools/lint/accounting.lock\n"
         "                        (refused if kDdtAccountingVersion was\n"
         "                        not bumped alongside a table change)\n"
         "  --fix                 repair the mechanical families in place\n"
         "                        (missing #pragma once, unused includes,\n"
         "                        include order) and report what remains\n"
         "  --dry-run             with --fix: print unified diffs only\n"
         "  --diff REF            report only findings in files changed\n"
         "                        vs the git ref (registry checks stay)\n"
         "  --compile-commands F  seed the scan with the translation\n"
         "                        units of a compile_commands.json\n"
         "  Suppress a finding with `// ddtr-lint: allow(<rule>)` on the\n"
         "  same or preceding line; a file with allow-file(<rule>).\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ddtr::lint::RunOptions options;
  options.repo_root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--update-accounting") {
      options.update_accounting = true;
    } else if (arg == "--repo-root") {
      if (i + 1 >= argc) return usage();
      options.repo_root = argv[++i];
    } else if (arg == "--fix") {
      options.fix = true;
    } else if (arg == "--dry-run") {
      options.dry_run = true;
    } else if (arg == "--diff") {
      if (i + 1 >= argc) return usage();
      options.diff_ref = argv[++i];
    } else if (arg == "--compile-commands") {
      if (i + 1 >= argc) return usage();
      options.compile_commands = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ddtr_lint: unknown flag " << arg << "\n";
      return usage();
    } else {
      options.roots.push_back(arg);
    }
  }
  if (options.roots.empty()) {
    for (const char* dir : {"src", "tests", "tools", "bench"}) {
      options.roots.push_back(options.repo_root + "/" + dir);
    }
  }
  const std::size_t findings = ddtr::lint::run_lint(options, std::cout);
  return findings == 0 ? 0 : 1;
}
