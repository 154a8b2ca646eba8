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
// Multi-writer model: a cache directory holds ONE shared main file
// (sim_cache.ddtr) plus any number of per-writer SEGMENT files
// (sim_cache.<tag>.seg, same frame format). A writer given a segment tag
// via set_segment() — e.g. shard `i` of a distributed exploration, see
// src/dist/ — stores exclusively into its own segment, so concurrent
// writers can never interleave appends in one file. load() merges the
// main file and every segment (later/newer wins per key), and
// dist::SegmentMerger consolidates segments back into a compacted main
// file once the writers are done.
//
// Robustness contract: cache files are disposable acceleration state,
// never a source of truth. A missing, truncated, corrupt or
// version-mismatched file is ignored (the run just starts cold and
// rewrites it); per-entry checksums drop damaged entries individually, so
// a torn append — e.g. a run killed mid-store — only costs the tail.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "core/simulation_cache.h"

namespace ddtr::core {

class PersistentSimulationCache {
 public:
  // On-disk format version; bump on any layout change. A file with a
  // different version is invalid as a whole (stale-version invalidation)
  // and gets rewritten by the next store_new().
  static constexpr std::uint32_t kFormatVersion = 1;

  // What the last load() consumed, per source.
  struct LoadStats {
    std::size_t main_entries = 0;     // parsed from sim_cache.ddtr
    std::size_t segment_files = 0;    // sim_cache.*.seg files read
    std::size_t segment_entries = 0;  // parsed from segment files
    std::size_t superseded = 0;       // duplicate keys overwritten merging
    std::size_t corrupt_entries = 0;  // frames dropped (checksum/payload)
  };

  // Structural health of one cache file (main or segment) — the substrate
  // of `ddtr cache verify`.
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
  };

  // Entries are stored iff this returns true (nullptr = keep all); shard
  // workers pass core::shard_of_key-based filters so segments partition.
  using KeyFilter = std::function<bool(const std::string& key)>;

  explicit PersistentSimulationCache(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  // The single shared cache file inside dir().
  std::string file_path() const;
  // Per-writer segment file for `tag` inside dir().
  std::string segment_path(const std::string& tag) const;
  // Existing segment files in dir(), sorted by file name (the merge
  // precedence order: later names supersede earlier ones and the main
  // file).
  std::vector<std::string> segment_paths() const;

  // Routes every subsequent store_new() to the per-writer segment file
  // for `tag` instead of the shared main file — the multi-writer fix: one
  // tag, one writer, one file, so concurrent processes sharing dir()
  // cannot interleave appends. Tags should be unique per writer (e.g.
  // "shard0of4") and must be file-name safe. load() still merges every
  // segment regardless of this setting.
  void set_segment(std::string tag);
  const std::string& segment() const noexcept { return segment_tag_; }

  // Reads the main cache file AND every segment file into memory,
  // deduplicating by key (main file first, then segments in name order —
  // the newest occurrence of a key wins; keys are content hashes of
  // deterministic simulations, so colliding entries agree and the order
  // is a tie-break, not a correctness concern). Returns the number of
  // distinct entries loaded; 0 (never a throw) when nothing readable.
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

  // Appends every entry of `cache` that was not loaded from disk — and
  // that `want` accepts, when given — to the store target (the main file,
  // or the segment file after set_segment()), creating directory and
  // file, or rewriting a file load() found invalid. Returns the number of
  // entries written; 0 on I/O failure (persistence is best-effort by
  // design). Written entries join the loaded set, so calling store_new()
  // again does not duplicate them.
  std::size_t store_new(const SimulationCache& cache,
                        const KeyFilter& want = nullptr);

  // Rewrites the MAIN cache file with exactly the loaded entry set —
  // duplicates and superseded entries dropped, deterministic (sorted-key)
  // order — via a temp file, an fsync of file and directory, then a
  // rename (a crash anywhere in the sequence leaves either the old file
  // or the complete new one, never an empty/truncated main file). Does
  // not touch segment files; run after load() (dist::SegmentMerger
  // composes load + compact + segment removal). Returns the number of
  // entries written; 0 on I/O failure.
  std::size_t compact();

  // Structural walk of one cache file: header, per-frame checksums,
  // payload parses, torn tail. Never throws; never modifies the file.
  static FileCheck check_file(const std::string& path);

 private:
  std::string store_path() const;

  std::string dir_;
  std::string segment_tag_;  // empty = store to the shared main file
  // Validity/extent of the *store target* as last parsed. A torn tail (a
  // run killed mid-append) is truncated away before the next append —
  // frames written after a torn frame would be unreachable to the loader.
  bool store_valid_ = false;
  std::uint64_t store_prefix_bytes_ = 0;
  LoadStats load_stats_;
  std::unordered_map<std::string, SimulationRecord> loaded_;
};

}  // namespace ddtr::core

