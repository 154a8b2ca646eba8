#include "core/persistent_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "support/binary_io.h"
#include "support/fnv_hash.h"

namespace ddtr::core {

namespace {

constexpr char kFileMagic[8] = {'D', 'D', 'T', 'R', 'S', 'I', 'M', 'C'};
constexpr std::uint32_t kFormatVersionValue =
    PersistentSimulationCache::kFormatVersion;
constexpr std::uint32_t kEntryMagic = 0x454d4953u;  // "SIME" little-endian
// One entry is a key plus one record; far below this. A corrupt length
// prefix must not look like a multi-gigabyte entry.
constexpr std::uint64_t kMaxEntryBytes = 16ull << 20;

// Entry payload: key, then the full SimulationRecord. The combination is
// stored as its label ("AR+DLL"), which is bijective with combinations.
void append_entry_payload(std::string& out, const std::string& key,
                          const SimulationRecord& r) {
  support::append_string(out, key);
  support::append_string(out, r.app_name);
  support::append_string(out, r.combo.label());
  support::append_string(out, r.network);
  support::append_string(out, r.config);
  support::append_f64(out, r.metrics.energy_mj);
  support::append_f64(out, r.metrics.time_s);
  support::append_u64(out, r.metrics.accesses);
  support::append_u64(out, r.metrics.footprint_bytes);
  support::append_u64(out, r.counters.reads);
  support::append_u64(out, r.counters.writes);
  support::append_u64(out, r.counters.bytes_read);
  support::append_u64(out, r.counters.bytes_written);
  support::append_u64(out, r.counters.allocations);
  support::append_u64(out, r.counters.deallocations);
  support::append_u64(out, r.counters.live_bytes);
  support::append_u64(out, r.counters.peak_bytes);
  support::append_u64(out, r.counters.cpu_ops);
}

bool read_entry_payload(support::ByteReader& in, std::string& key,
                        SimulationRecord& r) {
  std::string combo_label;
  if (!support::read_string(in, key) ||
      !support::read_string(in, r.app_name) ||
      !support::read_string(in, combo_label) ||
      !support::read_string(in, r.network) ||
      !support::read_string(in, r.config) ||
      !support::read_f64(in, r.metrics.energy_mj) ||
      !support::read_f64(in, r.metrics.time_s) ||
      !support::read_u64(in, r.metrics.accesses) ||
      !support::read_u64(in, r.metrics.footprint_bytes) ||
      !support::read_u64(in, r.counters.reads) ||
      !support::read_u64(in, r.counters.writes) ||
      !support::read_u64(in, r.counters.bytes_read) ||
      !support::read_u64(in, r.counters.bytes_written) ||
      !support::read_u64(in, r.counters.allocations) ||
      !support::read_u64(in, r.counters.deallocations) ||
      !support::read_u64(in, r.counters.live_bytes) ||
      !support::read_u64(in, r.counters.peak_bytes) ||
      !support::read_u64(in, r.counters.cpu_ops)) {
    return false;
  }
  std::optional<ddt::DdtCombination> combo =
      ddt::parse_combination(combo_label);
  if (!combo) return false;
  r.combo = std::move(*combo);
  return true;
}

// One full structural walk of a cache file. Shared by every reader —
// load(), seed(), the store's re-read and inspect_cache() — so they can
// never disagree about what "well-formed" means.
struct ParsedFile {
  bool header_valid = false;
  // End of the last structurally complete frame, past which any bytes
  // are a torn tail.
  std::uint64_t valid_prefix = 0;
  std::size_t entries_ok = 0;
  std::size_t entries_corrupt = 0;
  std::uint64_t bytes = 0;
};

ParsedFile parse_cache_file(
    const std::string& path,
    const std::function<void(std::string&&, SimulationRecord&&)>& on_entry) {
  ParsedFile out;
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  out.bytes = ec ? 0 : size;
  std::ifstream is(path, std::ios::binary);
  if (!is) return out;
  std::ostringstream content;
  content << is.rdbuf();
  const std::string bytes = std::move(content).str();
  support::ByteReader in(bytes);
  const auto offset = [&] {
    return static_cast<std::uint64_t>(bytes.size() - in.remaining());
  };

  const char* magic = in.take(sizeof(kFileMagic));
  std::uint32_t version = 0;
  if (magic == nullptr ||
      !std::equal(magic, magic + sizeof(kFileMagic), kFileMagic) ||
      !support::read_u32(in, version) || version != kFormatVersionValue) {
    // Not ours, corrupt, or written by another format version: the whole
    // file is invalid (stale-version invalidation).
    return out;
  }
  out.header_valid = true;
  out.valid_prefix = offset();

  // Entries until EOF. A short or unrecognizable frame ends the file (a
  // torn tail loses only itself); a frame whose checksum or payload
  // fails to parse is skipped individually (its length is known).
  while (true) {
    std::uint32_t entry_magic = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    if (!support::read_u32(in, entry_magic) || entry_magic != kEntryMagic ||
        !support::read_u64(in, payload_size) ||
        payload_size > kMaxEntryBytes || !support::read_u64(in, checksum)) {
      break;
    }
    const char* payload = in.take(static_cast<std::size_t>(payload_size));
    if (payload == nullptr) break;
    // The frame is structurally complete, even if its content is
    // rejected below.
    out.valid_prefix = offset();
    if (support::fnv1a64(payload, payload_size) != checksum) {
      ++out.entries_corrupt;  // bit-corrupted; the frame length let us skip
      continue;
    }
    support::ByteReader payload_reader(
        std::string_view(payload, static_cast<std::size_t>(payload_size)));
    std::string key;
    SimulationRecord record;
    if (!read_entry_payload(payload_reader, key, record)) {
      ++out.entries_corrupt;
      continue;
    }
    ++out.entries_ok;
    if (on_entry) on_entry(std::move(key), std::move(record));
  }
  return out;
}

// Appends one frame (magic, payload size, payload checksum, payload) to
// `out`. `payload` is scratch space, reused across entries.
void append_entry(std::string& out, std::string& payload,
                  const std::string& key, const SimulationRecord& r) {
  payload.clear();
  append_entry_payload(payload, key, r);
  support::append_u32(out, kEntryMagic);
  support::append_u64(out, payload.size());
  support::append_u64(out, support::fnv1a64(payload.data(), payload.size()));
  out += payload;
}

void append_file_header(std::string& out) {
  out.append(kFileMagic, sizeof(kFileMagic));
  support::append_u32(out, kFormatVersionValue);
}

// Every entry of the file at `path`, sorted by key; of a key's duplicate
// frames the newest wins.
std::map<std::string, SimulationRecord> read_entries(const std::string& path) {
  std::map<std::string, SimulationRecord> out;
  parse_cache_file(path, [&](std::string&& key, SimulationRecord&& record) {
    out.insert_or_assign(std::move(key), std::move(record));
  });
  return out;
}

// Replaces the file at `path` in `dir` with the encoding of `entries`:
// a temp file, an fsync of it, a rename over `path`, an fsync of the
// directory. A crash anywhere in the sequence leaves either the old file
// or the complete new one, never an empty or truncated file — rename
// alone only orders the metadata, so the temp file's content must reach
// stable storage first. The temp name is fixed: the caller holds the
// directory lock, and a stale temp file of a killed writer is
// overwritten.
bool replace_file(const std::string& dir, const std::string& path,
                  const std::map<std::string, SimulationRecord>& entries) {
  std::string bytes;
  std::string payload;
  append_file_header(bytes);
  for (const auto& [key, record] : entries) {
    append_entry(bytes, payload, key, record);
  }
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  if (!os || !support::fsync_file(tmp)) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  support::fsync_dir(dir);  // make the rename durable; best effort
  return true;
}

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

}  // namespace

PersistentSimulationCache::PersistentSimulationCache(std::string dir)
    : dir_(std::move(dir)) {}

std::string PersistentSimulationCache::file_path() const {
  return (std::filesystem::path(dir_) / "sim_cache.ddtr").string();
}

std::size_t PersistentSimulationCache::load() {
  synced_cache_ = 0;
  keys_.clear();
  parse_cache_file(file_path(), [&](std::string&& key, SimulationRecord&&) {
    keys_.insert(std::move(key));
  });
  return keys_.size();
}

std::size_t PersistentSimulationCache::seed(SimulationCache& cache) {
  synced_cache_ = 0;
  keys_.clear();
  parse_cache_file(file_path(),
                   [&](std::string&& key, SimulationRecord&& record) {
                     cache.insert(key, record);
                     keys_.insert(std::move(key));
                   });
  return keys_.size();
}

std::size_t PersistentSimulationCache::store_new(
    const SimulationCache& cache) {
  // Read before the scan: an insertion racing with it is left for the
  // next store to find.
  const std::uint64_t insertions = cache.insertions();
  if (cache.id() == synced_cache_ && insertions == synced_insertions_) {
    return 0;
  }
  const auto synced = [&] {
    synced_cache_ = cache.id();
    synced_insertions_ = insertions;
  };
  auto fresh = cache.entries_missing_from(keys_);
  if (fresh.empty()) {
    synced();
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
  const support::DirLock lock(dir_);
  if (!lock.locked()) return 0;

  // Under the lock the file is whatever the last writer renamed in —
  // possibly another session's stores since our last read: merge into it.
  std::map<std::string, SimulationRecord> merged = read_entries(file_path());
  std::size_t added = 0;
  for (auto& [key, record] : fresh) {
    added += merged.try_emplace(std::move(key), std::move(record)).second;
  }
  if (!replace_file(dir_, file_path(), merged)) return 0;
  keys_.clear();
  for (const auto& entry : merged) keys_.insert(entry.first);
  synced();
  return added;
}

CacheInspection inspect_cache(const std::string& dir) {
  const std::string path = PersistentSimulationCache(dir).file_path();
  CacheInspection out;
  std::error_code ec;
  out.present = std::filesystem::exists(path, ec) && !ec;
  if (!out.present) return out;

  std::unordered_set<std::string> keys;
  std::map<std::string, std::size_t> apps;
  std::map<std::string, std::size_t> fingerprints;
  const ParsedFile parsed =
      parse_cache_file(path, [&](std::string&& key, SimulationRecord&&) {
        const auto [it, fresh] = keys.insert(std::move(key));
        if (!fresh) return;
        const std::vector<std::string> fields = split_key(*it);
        ++apps[fields.front()];
        ++fingerprints[fields.back()];
      });
  // Zero-length: a crash between creation and the first write (or a lost
  // rename). Nothing parsed, nothing corrupt — the next store_new()
  // replaces it.
  out.empty = parsed.bytes == 0;
  out.header_valid = parsed.header_valid;
  out.bytes = parsed.bytes;
  out.entries = keys.size();
  out.duplicates = parsed.entries_ok - keys.size();
  out.corrupt = parsed.entries_corrupt;
  out.trailing_bytes = parsed.bytes > parsed.valid_prefix
                           ? parsed.bytes - parsed.valid_prefix
                           : 0;
  out.apps.assign(apps.begin(), apps.end());
  out.model_fingerprints.assign(fingerprints.begin(), fingerprints.end());
  return out;
}

bool clear_cache(const std::string& dir) {
  std::error_code ec;
  const bool removed =
      std::filesystem::remove(PersistentSimulationCache(dir).file_path(), ec);
  return removed && !ec;
}

}  // namespace ddtr::core
