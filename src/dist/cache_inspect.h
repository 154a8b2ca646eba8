// Inspection and maintenance of a persistent-cache directory — the
// engine room of the `ddtr cache` subcommand: stats (what is cached, for
// which workloads and cost models), verify (structural frame/checksum
// health of the main file and every segment), and clear.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/persistent_cache.h"

namespace ddtr::dist {

struct CacheStats {
  std::size_t files = 0;       // main file (if present) + segments
  std::uint64_t bytes = 0;     // summed file sizes
  std::size_t entries = 0;     // distinct entries after merge-on-load
  std::size_t duplicates = 0;  // superseded keys across files
  std::size_t corrupt = 0;     // frames dropped while loading
  // Distinct workloads and energy-model fingerprints present, with entry
  // counts (sorted by name/fingerprint — cache keys are structured, see
  // SimulationCache::key_of, so both are recoverable from the keys).
  std::vector<std::pair<std::string, std::size_t>> apps;
  std::vector<std::pair<std::string, std::size_t>> model_fingerprints;
};

CacheStats inspect_cache(const std::string& dir);

struct CacheFileReport {
  std::string path;
  core::PersistentSimulationCache::FileCheck check;
};

struct VerifyReport {
  std::vector<CacheFileReport> files;  // main file first, then segments

  // True when every present file has a valid header and zero corrupt
  // entries. A torn tail (trailing_bytes > 0) alone does not fail
  // verification: it is the expected scar of a killed run and heals on
  // the next append. A zero-length file is likewise tolerated (a crash
  // between creation and the first write; the next store rewrites it).
  bool ok() const {
    for (const CacheFileReport& f : files) {
      if (!f.check.present || f.check.empty) continue;
      if (!f.check.header_valid || f.check.entries_corrupt != 0) return false;
    }
    return true;
  }
};

VerifyReport verify_cache(const std::string& dir);

// Deletes the main cache file and every segment in `dir` (the directory
// itself stays). Returns the number of files removed.
std::size_t clear_cache(const std::string& dir);

// What `ddtr cache gc` pruned and kept.
struct GcStats {
  std::size_t segments_removed = 0;
  std::size_t kept = 0;  // segments younger than the cap
};

// Prunes STALE distributed-run residue: segment files whose mtime is
// older than `max_age_s` seconds. The main cache file is
// never touched (it is the consolidated record store, not residue), so gc
// is always safe to run on a live directory — a worker actively writing
// its segment keeps refreshing its mtime. Run `ddtr cache merge` first
// when the stale segments still hold unmerged records worth keeping.
GcStats gc_cache(const std::string& dir, double max_age_s);

}  // namespace ddtr::dist

