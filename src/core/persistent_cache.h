// Cross-run persistence for the simulation cache. The paper's flow
// re-runs the same (trace, configuration, combination) simulations across
// studies, ablations and repeated `ddtr` invocations; this class makes
// those replays survive the process: a versioned binary file per cache
// directory, loaded at session start to seed the in-memory
// SimulationCache, appended after the run with whatever that run had to
// simulate. Soundness comes from the cache keys (content hashes +
// energy-model fingerprint, see SimulationCache::key_of), so a warm cache
// yields byte-identical reports with zero executed simulations.
//
// A cache directory holds exactly one file, sim_cache.ddtr. Concurrent
// processes sharing a directory are best-effort: each appends to the same
// file, and a torn cross-process append costs one checksummed entry that
// the next run recomputes. Any other file in the directory — e.g. a
// `sim_cache.*.seg` left by an older version — is ignored.
//
// Robustness contract: the cache file is disposable acceleration state,
// never a source of truth. A missing, truncated, corrupt or
// version-mismatched file is ignored (the run just starts cold and
// rewrites it); per-entry checksums drop damaged entries individually, so
// a torn append — e.g. a run killed mid-store — only costs the tail.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
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
    // is the expected scar of a killed run and heals on the next append.
    bool ok() const {
      return !present || empty || (header_valid && entries_corrupt == 0);
    }
  };

  explicit PersistentSimulationCache(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  // The cache file inside dir().
  std::string file_path() const;

  // Reads the cache file into memory, deduplicating by key (the newest
  // occurrence of a key wins; keys are content hashes of deterministic
  // simulations, so colliding entries agree and the order is a
  // tie-break, not a correctness concern). Returns the number of distinct
  // entries loaded; 0 (never a throw) when nothing readable.
  std::size_t load();

  const LoadStats& load_stats() const noexcept { return load_stats_; }
  std::size_t loaded_count() const noexcept { return loaded_.size(); }

  // Seeds `cache` with every loaded entry (existing entries win, stats
  // untouched — seeded records count as hits only when a lookup replays
  // them).
  void seed(SimulationCache& cache) const;

  // Snapshot of the loaded entries, sorted by key (deterministic order
  // for inspection tools).
  std::vector<std::pair<std::string, SimulationRecord>> entries() const;

  // Appends every entry of `cache` that was not loaded from disk to the
  // cache file, creating directory and file, or rewriting a file load()
  // found invalid. Returns the number of entries written; 0 on I/O
  // failure (persistence is best-effort by design). Written entries join
  // the loaded set, so calling store_new() again does not duplicate them.
  std::size_t store_new(const SimulationCache& cache);

  // Rewrites the cache file with exactly the loaded entry set —
  // duplicates and superseded entries dropped, deterministic (sorted-key)
  // order — via a temp file, an fsync of file and directory, then a
  // rename (a crash anywhere in the sequence leaves either the old file
  // or the complete new one, never an empty/truncated file). Run after
  // load(). Returns the number of entries written; 0 on I/O failure.
  std::size_t compact();

  // Structural walk of one cache file: header, per-frame checksums,
  // payload parses, torn tail. Never throws; never modifies the file.
  static FileCheck check_file(const std::string& path);

 private:
  std::string dir_;
  // Validity/extent of the cache file as last parsed. A torn tail (a
  // run killed mid-append) is truncated away before the next append —
  // frames written after a torn frame would be unreachable to the loader.
  bool store_valid_ = false;
  std::uint64_t store_prefix_bytes_ = 0;
  LoadStats load_stats_;
  std::unordered_map<std::string, SimulationRecord> loaded_;
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

