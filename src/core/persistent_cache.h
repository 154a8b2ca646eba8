// Cross-run persistence for the simulation cache. The paper's flow
// re-runs the same (trace, configuration, combination) simulations across
// studies, ablations and repeated `ddtr` invocations; this class makes
// those replays survive the process: a versioned binary file per cache
// directory, read once at session start by seed() — one parse fills the
// in-memory SimulationCache and the file's key set — and extended after
// the run with whatever that run had to simulate. Soundness comes from
// the cache keys (content hashes + energy-model fingerprint, see
// SimulationCache::key_of), so a warm cache yields byte-identical
// reports with zero executed simulations.
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

  explicit PersistentSimulationCache(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  // The cache file inside dir().
  std::string file_path() const;

  // Reads the cache file's key set only: what lets a warm store_new()
  // return before any I/O. Returns the number of distinct entries; 0
  // (never a throw) when nothing readable.
  std::size_t load();

  // The warm-start read: one parse of the file seeds `cache` with every
  // entry it holds and keeps the file's key set, as load() does. Returns
  // the number of distinct entries. Existing entries of `cache` win and
  // its stats are untouched — seeded records count as hits only when a
  // lookup replays them. Of a key's duplicate frames the first wins;
  // keys are content hashes of deterministic simulations, so colliding
  // entries agree and the order is a tie-break, not a correctness
  // concern.
  std::size_t seed(SimulationCache& cache);

  // Distinct keys the file held at the last load(), seed() or
  // store_new().
  std::size_t loaded_count() const noexcept { return keys_.size(); }

  // Adds every entry of `cache` the file lacks: under the directory lock,
  // re-reads the file, merges and replaces it (see the file comment),
  // creating the directory if needed. Returns the number of entries
  // added; 0 on I/O failure (persistence is best-effort by design). When
  // every key of `cache` is one the file held at the last load(),
  // seed() or store_new(), returns 0 before any I/O — in O(1) when
  // `cache` is the one the last store_new() found or made the file hold
  // and it has inserted nothing since (SimulationCache::id() and
  // insertions(); load() and seed() forget that sync).
  std::size_t store_new(const SimulationCache& cache);

 private:
  std::string dir_;
  std::unordered_set<std::string> keys_;
  // The cache whose every key keys_ held when it had made
  // synced_insertions_ insertions; id 0 names no cache.
  std::uint64_t synced_cache_ = 0;
  std::uint64_t synced_insertions_ = 0;
};

// What a cache directory's file holds, from one parse — the substrate of
// both `ddtr cache stats` and `ddtr cache verify`. Never throws; never
// modifies the file.
struct CacheInspection {
  bool present = false;  // the cache file exists
  // A zero-length file: the recognizable scar of a crash between file
  // creation and the first durable write. Tolerated (the next run
  // rewrites it), reported distinctly so verify does not flag it as
  // corruption.
  bool empty = false;
  bool header_valid = false;         // magic + current format version
  std::uint64_t bytes = 0;           // file size
  std::size_t entries = 0;           // distinct keys among readable frames
  std::size_t duplicates = 0;        // readable frames repeating a key
  std::size_t corrupt = 0;           // frames dropped (checksum/payload)
  std::uint64_t trailing_bytes = 0;  // torn tail past the last frame
  // Distinct workloads and energy-model fingerprints present, with entry
  // counts (sorted by name/fingerprint — cache keys are structured, see
  // SimulationCache::key_of, so both are recoverable from the keys).
  std::vector<std::pair<std::string, std::size_t>> apps;
  std::vector<std::pair<std::string, std::size_t>> model_fingerprints;

  // True for an absent or empty file, or a valid header with zero
  // corrupt entries. A torn tail (trailing_bytes > 0) alone passes: it is
  // the scar of an interrupted append by an older version and heals on
  // the next store.
  bool ok() const {
    return !present || empty || (header_valid && corrupt == 0);
  }
};

CacheInspection inspect_cache(const std::string& dir);

// Deletes the cache file in `dir` (the directory itself stays). Returns
// whether a file was removed.
bool clear_cache(const std::string& dir);

}  // namespace ddtr::core

