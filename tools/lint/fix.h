// The autofix pass — `ddtr_lint --fix`.
//
// Three rule families are mechanical enough to repair, not just report:
// a header missing `#pragma once` gains one (after its leading comment
// block), include lines the dependency analyzer proved removable are
// deleted, and include regions are rewritten into the canonical order
// the tree already follows:
//
//   [primary header]          ("m/foo.h" from m/foo.cc)
//   [C++ standard headers]    (<...> without a dot)
//   [C/system headers]        (<...> with a dot)
//   [project headers]         ("...")
//
// alphabetical within each group, one blank line between groups.
// Regions are maximal runs of unconditional include lines and blanks;
// includes inside `#if` blocks or carrying trailing comments bound the
// region and are never moved. The include-order *rule* is the fixer run
// in anger: a region is misordered exactly when the rewrite differs, so
// detector and repair can never disagree.
//
// `fix_source` is pure (content in, content out) and idempotent by
// construction: the canonical form is its own fixpoint, which the test
// suite pins with a fix → re-lint → re-fix round-trip.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "scan.h"

namespace ddtr::lint {

// Canonicalizes every include region of the file; returns the original
// content byte-for-byte when nothing is misordered.
std::string reorder_includes(const SourceFile& file);

// include-order findings: one per misordered region (anchored at the
// region's first line).
void check_include_order(const SourceFile& file, std::vector<Finding>& out);

struct FileFix {
  std::string after;               // fixed content
  std::vector<std::string> notes;  // one human-readable line per repair
};

// Applies all mechanical repairs: drops `removable` include lines (from
// the dependency analysis), inserts a missing `#pragma once` into
// headers, and canonicalizes include order. Returns nullopt when the
// file is already clean.
std::optional<FileFix> fix_source(const SourceFile& file,
                                  const std::set<std::size_t>& removable);

// Minimal unified diff (3 context lines) for `--fix --dry-run`.
std::string unified_diff(const std::string& before, const std::string& after,
                         const std::string& path);

}  // namespace ddtr::lint
