// The lock-order discipline checker — ddtr_lint's concurrency pass.
//
// The daemon's session threads, the thread pool, both caches, the
// trace store and the obs registry each hold a mutex; TSan only sees the
// interleavings a test happens to produce. This pass reads the locking
// *discipline* statically: every `lock_guard`/`unique_lock`/`scoped_lock`
// over a named mutex is an acquisition event, guard lifetimes follow the
// brace scopes they were declared in, and nested acquisitions define a
// global ordering graph whose mutex identities are qualified by
// `<module>/<file-stem>:<name>` so unrelated classes' `mu_` never alias.
//
//   lock-order  an acquisition cycle in the global graph (A held while
//               taking B in one place, B held while taking A in
//               another), re-acquiring a mutex already held in the same
//               scope chain, or calling — while holding M — a same-file
//               function that acquires M (`.unlock()` releases; guards
//               constructed with defer_lock/adopt_lock/try_to_lock are
//               not acquisitions).
//   cv-wait     a condition-variable wait without a predicate: bare
//               `cv.wait(lock)` is wakeup-lossy under spurious wakeups;
//               `wait_for`/`wait_until` need the predicate overload too.
#pragma once

#include <vector>

#include "scan.h"

namespace ddtr::lint {

// Runs both checks over the scanned files. Suppressions are NOT applied
// here — the driver owns that.
std::vector<Finding> check_locks(const std::vector<SourceFile>& files);

}  // namespace ddtr::lint
