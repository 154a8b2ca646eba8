#include "core/persistent_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "support/binary_io.h"
#include "support/fnv_hash.h"

namespace ddtr::core {

namespace {

// Serializes cache-file I/O within the process: concurrent explorations
// (e.g. bench_common fanning case studies over the thread pool) share one
// cache directory, and interleaved appends would tear frames.
// Cross-process appends remain best-effort — the checksummed frames make
// a torn cross-process append a skipped entry, never a crash.
std::mutex& io_mutex() {
  static std::mutex mu;
  return mu;
}

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

bool read_entry_payload(std::istream& is, std::string& key,
                        SimulationRecord& r) {
  std::string combo_label;
  if (!support::read_string(is, key) ||
      !support::read_string(is, r.app_name) ||
      !support::read_string(is, combo_label) ||
      !support::read_string(is, r.network) ||
      !support::read_string(is, r.config) ||
      !support::read_f64(is, r.metrics.energy_mj) ||
      !support::read_f64(is, r.metrics.time_s) ||
      !support::read_u64(is, r.metrics.accesses) ||
      !support::read_u64(is, r.metrics.footprint_bytes) ||
      !support::read_u64(is, r.counters.reads) ||
      !support::read_u64(is, r.counters.writes) ||
      !support::read_u64(is, r.counters.bytes_read) ||
      !support::read_u64(is, r.counters.bytes_written) ||
      !support::read_u64(is, r.counters.allocations) ||
      !support::read_u64(is, r.counters.deallocations) ||
      !support::read_u64(is, r.counters.live_bytes) ||
      !support::read_u64(is, r.counters.peak_bytes) ||
      !support::read_u64(is, r.counters.cpu_ops)) {
    return false;
  }
  std::optional<ddt::DdtCombination> combo =
      ddt::parse_combination(combo_label);
  if (!combo) return false;
  r.combo = std::move(*combo);
  return true;
}

// One full structural walk of a cache file. Shared by load() (absorbing
// entries), check_file() (counting only) and the store-target
// revalidation, so the three can never disagree about what "well-formed"
// means.
struct ParsedFile {
  bool header_valid = false;
  // End of the last structurally complete frame: where an append may
  // start, and past which any bytes are a torn tail.
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

  char magic[sizeof(kFileMagic)] = {};
  std::uint32_t version = 0;
  if (!is.read(magic, sizeof(magic)) ||
      !std::equal(std::begin(magic), std::end(magic),
                  std::begin(kFileMagic)) ||
      !support::read_u32(is, version) || version != kFormatVersionValue) {
    // Not ours, corrupt, or written by another format version: the whole
    // file is invalid (stale-version invalidation).
    return out;
  }
  out.header_valid = true;
  out.valid_prefix = static_cast<std::uint64_t>(is.tellg());

  // Entries until EOF. A short or unrecognizable frame ends the file (a
  // torn append loses only the tail); a frame whose checksum or payload
  // fails to parse is skipped individually (its length is known).
  while (true) {
    std::uint32_t entry_magic = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    if (!support::read_u32(is, entry_magic) || entry_magic != kEntryMagic ||
        !support::read_u64(is, payload_size) ||
        payload_size > kMaxEntryBytes || !support::read_u64(is, checksum)) {
      break;
    }
    std::string payload(payload_size, '\0');
    if (payload_size != 0 &&
        !is.read(payload.data(),
                 static_cast<std::streamsize>(payload_size))) {
      break;
    }
    // The frame is structurally complete: later appends may follow it
    // even if this entry's content is rejected below.
    out.valid_prefix = static_cast<std::uint64_t>(is.tellg());
    if (support::fnv1a64(payload.data(), payload.size()) != checksum) {
      ++out.entries_corrupt;  // bit-corrupted; the frame length let us skip
      continue;
    }
    std::istringstream payload_stream(payload);
    std::string key;
    SimulationRecord record;
    if (!read_entry_payload(payload_stream, key, record)) {
      ++out.entries_corrupt;
      continue;
    }
    ++out.entries_ok;
    if (on_entry) on_entry(std::move(key), std::move(record));
  }
  return out;
}

// Walks structurally complete frames from `from`, returning the offset
// where they end. Used before appending: anything past that offset is a
// torn tail to truncate — but frames another (in-process) writer appended
// after our load() walk fine and are preserved.
std::uint64_t scan_valid_frames(const std::string& path, std::uint64_t from) {
  constexpr std::uint64_t kFrameHeaderBytes = 4 + 8 + 8;
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size <= from) return from;
  std::ifstream is(path, std::ios::binary);
  if (!is) return from;
  is.seekg(static_cast<std::streamoff>(from));
  std::uint64_t pos = from;
  while (pos + kFrameHeaderBytes <= size) {
    std::uint32_t entry_magic = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    if (!support::read_u32(is, entry_magic) || entry_magic != kEntryMagic ||
        !support::read_u64(is, payload_size) ||
        payload_size > kMaxEntryBytes || !support::read_u64(is, checksum) ||
        pos + kFrameHeaderBytes + payload_size > size) {
      break;
    }
    is.seekg(static_cast<std::streamoff>(payload_size), std::ios::cur);
    if (!is) break;
    pos += kFrameHeaderBytes + payload_size;
  }
  return pos;
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

// One write of the whole buffer; false when the stream failed.
bool write_all(std::ofstream& os, const std::string& bytes) {
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
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
  std::lock_guard<std::mutex> io_lock(io_mutex());
  loaded_.clear();
  load_stats_ = LoadStats{};
  store_valid_ = false;
  store_prefix_bytes_ = 0;

  const auto absorb = [&](std::string&& key, SimulationRecord&& record) {
    const auto [it, inserted] =
        loaded_.insert_or_assign(std::move(key), std::move(record));
    (void)it;
    if (!inserted) ++load_stats_.superseded;
  };

  const ParsedFile parsed = parse_cache_file(file_path(), absorb);
  load_stats_.main_entries = parsed.entries_ok;
  load_stats_.corrupt_entries = parsed.entries_corrupt;
  store_valid_ = parsed.header_valid;
  store_prefix_bytes_ = parsed.valid_prefix;
  return loaded_.size();
}

void PersistentSimulationCache::seed(SimulationCache& cache) const {
  for (const auto& [key, record] : loaded_) cache.insert(key, record);
}

std::vector<std::pair<std::string, SimulationRecord>>
PersistentSimulationCache::entries() const {
  std::vector<std::pair<std::string, SimulationRecord>> out;
  out.reserve(loaded_.size());
  for (const auto& [key, record] : loaded_) out.emplace_back(key, record);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t PersistentSimulationCache::store_new(
    const SimulationCache& cache) {
  auto fresh = cache.entries_missing_from(loaded_);
  if (fresh.empty()) return 0;

  std::lock_guard<std::mutex> io_lock(io_mutex());
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
  const std::string target = file_path();

  // Re-validate under the lock: another session sharing this directory
  // may have created a valid file since our load() (several cold-start
  // sessions racing), and opening it ios::trunc below would wipe their
  // stores. Appending possibly-duplicate entries instead is benign
  // (load() keeps the last occurrence of a key).
  if (!store_valid_) {
    const ParsedFile parsed = parse_cache_file(target, nullptr);
    if (parsed.header_valid) {
      store_valid_ = true;
      store_prefix_bytes_ = parsed.valid_prefix;
    }
  }

  // Drop a torn tail (a run killed mid-append) before appending: frames
  // written after a torn frame would be unreachable to the loader. Frames
  // appended by another writer since our load() are complete and survive
  // the re-scan.
  if (store_valid_) {
    const std::uint64_t valid_end =
        scan_valid_frames(target, store_prefix_bytes_);
    const auto size = std::filesystem::file_size(target, ec);
    if (!ec && size > valid_end) {
      std::filesystem::resize_file(target, valid_end, ec);
      if (ec) return 0;
    }
  }

  // Append to a valid file; rewrite (header included) a missing or
  // invalid one. The whole append is assembled first and written at once.
  std::string bytes;
  std::string payload;
  if (!store_valid_) append_file_header(bytes);
  for (const auto& [key, record] : fresh) {
    append_entry(bytes, payload, key, record);
  }
  std::ios::openmode mode = std::ios::binary |
                            (store_valid_ ? std::ios::app : std::ios::trunc);
  std::ofstream os(target, mode);
  if (!os || !write_all(os, bytes)) return 0;
  store_valid_ = true;
  store_prefix_bytes_ = static_cast<std::uint64_t>(os.tellp());
  os.close();
  // Flush the appended frames to stable storage: a run that reported its
  // records stored must find them after a crash, not a hollow tail.
  support::fsync_file(target);
  for (auto& [key, record] : fresh) {
    loaded_.insert_or_assign(std::move(key), std::move(record));
  }
  return fresh.size();
}

std::size_t PersistentSimulationCache::compact() {
  std::lock_guard<std::mutex> io_lock(io_mutex());
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);

  // Deterministic (sorted-key) order: compacted files are byte-identical
  // for identical entry sets, whatever history produced them.
  std::vector<const std::pair<const std::string, SimulationRecord>*> sorted;
  sorted.reserve(loaded_.size());
  for (const auto& entry : loaded_) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  std::string bytes;
  std::string payload;
  append_file_header(bytes);
  for (const auto* entry : sorted) {
    append_entry(bytes, payload, entry->first, entry->second);
  }
  const std::string tmp = file_path() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return 0;
    if (!write_all(os, bytes)) {
      std::filesystem::remove(tmp, ec);
      return 0;
    }
  }
  // Flush the temp file to stable storage BEFORE renaming it over the
  // main file: rename alone only orders the metadata, so a crash right
  // after it could surface an empty or truncated sim_cache.ddtr where a
  // complete one used to be. (Cache files are disposable, but silently
  // replacing good data with a hollow file is the one corruption the
  // temp+rename pattern exists to prevent.)
  if (!support::fsync_file(tmp)) {
    std::filesystem::remove(tmp, ec);
    return 0;
  }
  std::filesystem::rename(tmp, file_path(), ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return 0;
  }
  support::fsync_dir(dir_);  // make the rename durable; best effort
  {
    const auto size = std::filesystem::file_size(file_path(), ec);
    store_valid_ = !ec;
    store_prefix_bytes_ = ec ? 0 : size;
  }
  return sorted.size();
}

PersistentSimulationCache::FileCheck PersistentSimulationCache::check_file(
    const std::string& path) {
  FileCheck check;
  std::error_code ec;
  check.present = std::filesystem::exists(path, ec) && !ec;
  if (!check.present) return check;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec && size == 0) {
    // Zero-length: a crash between creation and the first write (or a
    // lost rename). Nothing to parse, nothing corrupt — the next
    // store_new() rewrites it from scratch.
    check.empty = true;
    return check;
  }
  const ParsedFile parsed = parse_cache_file(path, nullptr);
  check.header_valid = parsed.header_valid;
  check.bytes = parsed.bytes;
  check.entries_ok = parsed.entries_ok;
  check.entries_corrupt = parsed.entries_corrupt;
  check.trailing_bytes =
      parsed.bytes > parsed.valid_prefix ? parsed.bytes - parsed.valid_prefix
                                         : 0;
  return check;
}

CacheStats inspect_cache(const std::string& dir) {
  PersistentSimulationCache cache(dir);
  CacheStats stats;
  std::error_code ec;
  stats.present = std::filesystem::exists(cache.file_path(), ec) && !ec;
  if (stats.present) {
    const auto size = std::filesystem::file_size(cache.file_path(), ec);
    if (!ec) stats.bytes = size;
  }

  stats.entries = cache.load();
  stats.duplicates = cache.load_stats().superseded;
  stats.corrupt = cache.load_stats().corrupt_entries;

  std::map<std::string, std::size_t> apps;
  std::map<std::string, std::size_t> fingerprints;
  for (const auto& [key, record] : cache.entries()) {
    const std::vector<std::string> fields = split_key(key);
    ++apps[fields.front()];
    ++fingerprints[fields.back()];
  }
  stats.apps.assign(apps.begin(), apps.end());
  stats.model_fingerprints.assign(fingerprints.begin(), fingerprints.end());
  return stats;
}

bool clear_cache(const std::string& dir) {
  std::error_code ec;
  const bool removed =
      std::filesystem::remove(PersistentSimulationCache(dir).file_path(), ec);
  return removed && !ec;
}

}  // namespace ddtr::core
