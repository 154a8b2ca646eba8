// Entry point of the project linter: the `lint` ctest and pre-commit
// hooks run this binary, which needs nothing but the lint sources
// themselves.
#include <iostream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

int usage() {
  std::cerr
      << "usage: ddtr_lint [--repo-root DIR] [--update-accounting] [PATH ...]\n"
         "  Scans every *.h/*.cc/*.cpp under the given files/directories\n"
         "  (default: src tests tools bench examples under the repo root)\n"
         "  against the project's invariant rules, the layering and\n"
         "  include-cycle passes, and the accounting-version registry\n"
         "  check. Exits 1 when anything is found.\n"
         "  --repo-root DIR       tree containing src/ and tools/lint/\n"
         "                        (default: .)\n"
         "  --update-accounting   re-record tools/lint/accounting.lock\n"
         "                        (refused if kDdtAccountingVersion was\n"
         "                        not bumped alongside a table change)\n"
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
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ddtr_lint: unknown flag " << arg << "\n";
      return usage();
    } else {
      options.roots.push_back(arg);
    }
  }
  if (options.roots.empty()) {
    for (const char* dir : {"src", "tests", "tools", "bench", "examples"}) {
      options.roots.push_back(options.repo_root + "/" + dir);
    }
  }
  const std::size_t findings = ddtr::lint::run_lint(options, std::cout);
  return findings == 0 ? 0 : 1;
}
