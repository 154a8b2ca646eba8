#include "dist/cache_inspect.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>

namespace ddtr::dist {

namespace {

// Cache keys are 0x1f-joined fields (see SimulationCache::key_of):
// app, app cache_version, config, trace hash, combo, model fingerprint.
constexpr char kKeySep = '\x1f';

std::vector<std::string> split_key(const std::string& key) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t sep = key.find(kKeySep, start);
    if (sep == std::string::npos) {
      fields.push_back(key.substr(start));
      return fields;
    }
    fields.push_back(key.substr(start, sep - start));
    start = sep + 1;
  }
}

std::vector<std::pair<std::string, std::size_t>> sorted_counts(
    const std::map<std::string, std::size_t>& counts) {
  return {counts.begin(), counts.end()};
}

}  // namespace

CacheStats inspect_cache(const std::string& dir) {
  core::PersistentSimulationCache cache(dir);
  CacheStats stats;
  std::error_code ec;
  if (std::filesystem::exists(cache.file_path(), ec) && !ec) {
    ++stats.files;
    const auto size = std::filesystem::file_size(cache.file_path(), ec);
    if (!ec) stats.bytes += size;
  }
  for (const std::string& seg : cache.segment_paths()) {
    ++stats.files;
    const auto size = std::filesystem::file_size(seg, ec);
    if (!ec) stats.bytes += size;
  }

  stats.entries = cache.load();
  stats.duplicates = cache.load_stats().superseded;
  stats.corrupt = cache.load_stats().corrupt_entries;

  std::map<std::string, std::size_t> apps;
  std::map<std::string, std::size_t> fingerprints;
  for (const auto& [key, record] : cache.entries()) {
    const std::vector<std::string> fields = split_key(key);
    if (fields.empty()) continue;
    ++apps[fields.front()];
    ++fingerprints[fields.back()];
  }
  stats.apps = sorted_counts(apps);
  stats.model_fingerprints = sorted_counts(fingerprints);
  return stats;
}

VerifyReport verify_cache(const std::string& dir) {
  core::PersistentSimulationCache cache(dir);
  VerifyReport report;
  report.files.push_back(
      {cache.file_path(),
       core::PersistentSimulationCache::check_file(cache.file_path())});
  for (const std::string& seg : cache.segment_paths()) {
    report.files.push_back(
        {seg, core::PersistentSimulationCache::check_file(seg)});
  }
  return report;
}

std::size_t clear_cache(const std::string& dir) {
  core::PersistentSimulationCache cache(dir);
  std::size_t removed = 0;
  std::error_code ec;
  std::vector<std::string> victims = cache.segment_paths();
  victims.push_back(cache.file_path());
  for (const std::string& path : victims) {
    if (std::filesystem::remove(path, ec) && !ec) ++removed;
  }
  return removed;
}

GcStats gc_cache(const std::string& dir, double max_age_s) {
  core::PersistentSimulationCache cache(dir);
  GcStats stats;
  const auto now = std::filesystem::file_time_type::clock::now();
  const auto cap = std::chrono::duration_cast<
      std::filesystem::file_time_type::duration>(
      std::chrono::duration<double>(max_age_s));
  for (const std::string& path : cache.segment_paths()) {
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec) continue;  // vanished concurrently: nothing to prune
    if (now - mtime <= cap) {
      ++stats.kept;
      continue;
    }
    if (std::filesystem::remove(path, ec) && !ec) ++stats.segments_removed;
  }
  return stats;
}

}  // namespace ddtr::dist
