// Cross-run persistence for the simulation cache. The paper's flow
// re-runs the same (trace, configuration, combination) simulations across
// studies, ablations and repeated `ddtr` invocations; this class makes
// those replays survive the process: a versioned binary file per cache
// directory, loaded at session start to seed the in-memory
// SimulationCache, extended after the run with whatever that run had to
// simulate. Soundness comes from the cache keys (content hashes +
// energy-model fingerprint, see SimulationCache::key_of), so a warm cache
// yields byte-identical reports with zero executed simulations.
//
// A cache directory holds exactly one file, sim_cache.ddtr. It has one
// writer, store_new(): under an exclusive flock on the directory (one
// lock for threads and processes alike) it re-reads the file, merges in
// the entries the file lacks and replaces the file whole — the union
// sorted by key, written to sim_cache.ddtr.tmp, fsynced and renamed over
// the file. So every file a store leaves is the sorted, duplicate-free
// encoding of its entry set, and concurrent writers sharing a directory
// never lose each other's entries. Readers take no lock: the file only
// ever changes by rename, so a reader sees one complete version. Any
// other file in the directory — e.g. a `sim_cache.*.seg` left by an
// older version — is ignored.
//
// Robustness contract: the cache file is disposable acceleration state,
// never a source of truth. A missing, truncated, corrupt or
// version-mismatched file is ignored (the run just starts cold and
// rewrites it); per-entry checksums drop damaged entries individually.
// A torn tail or a duplicate frame can only come from outside this
// writer (an older version's append, external damage); the next store
// drops both.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "core/simulation_cache.h"

namespace ddtr::core {

class PersistentSimulationCache {
 public:
  // On-disk format version; bump on any layout change, and on any change
  // to the keys' meaning (2: Trace::content_hash became word-wise, so
  // version-1 keys name traces no run asks for). A file with a different
  // version is invalid as a whole (stale-version invalidation) and gets
  // rewritten by the next store_new().
  static constexpr std::uint32_t kFormatVersion = 2;

  // What the last load() consumed.
  struct LoadStats {
    std::size_t main_entries = 0;     // parsed from sim_cache.ddtr
    std::size_t superseded = 0;       // duplicate keys overwritten loading
    std::size_t corrupt_entries = 0;  // frames dropped (checksum/payload)
  };

  // Structural health of one cache file — the substrate of
  // `ddtr cache verify`.
  struct FileCheck {
    bool present = false;
    // A zero-length file: the recognizable scar of a crash between file
    // creation and the first durable write. Tolerated (the next run
    // rewrites it), reported distinctly so verify does not flag it as
    // corruption.
    bool empty = false;
    bool header_valid = false;         // magic + current format version
    std::uint64_t bytes = 0;           // file size
    std::size_t entries_ok = 0;        // frames with valid checksum+payload
    std::size_t entries_corrupt = 0;   // frames dropped
    std::uint64_t trailing_bytes = 0;  // torn tail past the last frame

    // True for an absent or empty file, or a valid header with zero
    // corrupt entries. A torn tail (trailing_bytes > 0) alone passes: it
    // is the scar of an interrupted append by an older version and
    // heals on the next store.
    bool ok() const {
      return !present || empty || (header_valid && entries_corrupt == 0);
    }
  };

  explicit PersistentSimulationCache(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  // The cache file inside dir().
  std::string file_path() const;

  // Reads the cache file and keeps its key set: what lets a warm
  // store_new() return before any I/O. Returns the number of distinct
  // entries; 0 (never a throw) when nothing readable.
  std::size_t load();

  const LoadStats& load_stats() const noexcept { return load_stats_; }
  // Distinct keys the file held at the last load() or store_new().
  std::size_t loaded_count() const noexcept { return keys_.size(); }

  // Seeds `cache` with every entry the file holds now (existing entries
  // win, stats untouched — seeded records count as hits only when a
  // lookup replays them). Of a key's duplicate frames the newest wins;
  // keys are content hashes of deterministic simulations, so colliding
  // entries agree and the order is a tie-break, not a correctness
  // concern.
  void seed(SimulationCache& cache) const;

  // Every entry the file holds now, sorted by key (deterministic order
  // for inspection tools).
  std::vector<std::pair<std::string, SimulationRecord>> entries() const;

  // Adds every entry of `cache` the file lacks: under the directory lock,
  // re-reads the file, merges and replaces it (see the file comment),
  // creating the directory if needed. Returns the number of entries
  // added; 0 on I/O failure (persistence is best-effort by design). When
  // every key of `cache` is one the file held at the last load() or
  // store_new(), returns 0 before any I/O.
  std::size_t store_new(const SimulationCache& cache);

  // Structural walk of one cache file: header, per-frame checksums,
  // payload parses, torn tail. Never throws; never modifies the file.
  static FileCheck check_file(const std::string& path);

 private:
  std::string dir_;
  LoadStats load_stats_;
  std::unordered_set<std::string> keys_;
};

// What a cache directory holds — the substrate of `ddtr cache stats`.
struct CacheStats {
  bool present = false;        // the cache file exists
  std::uint64_t bytes = 0;     // its size
  std::size_t entries = 0;     // distinct entries after load()
  std::size_t duplicates = 0;  // superseded keys within the file
  std::size_t corrupt = 0;     // frames dropped while loading
  // Distinct workloads and energy-model fingerprints present, with entry
  // counts (sorted by name/fingerprint — cache keys are structured, see
  // SimulationCache::key_of, so both are recoverable from the keys).
  std::vector<std::pair<std::string, std::size_t>> apps;
  std::vector<std::pair<std::string, std::size_t>> model_fingerprints;
};

CacheStats inspect_cache(const std::string& dir);

// Deletes the cache file in `dir` (the directory itself stays). Returns
// whether a file was removed.
bool clear_cache(const std::string& dir);

}  // namespace ddtr::core

