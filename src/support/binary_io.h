// Minimal little-endian binary encoding, the serialization substrate of
// the persistent cache files and the serve frames. Explicit byte-by-byte
// encoding (no struct dumps) keeps the formats independent of host
// endianness, padding and type widths; doubles travel as their IEEE-754
// bit pattern, so round-trips are exact — a requirement for the
// byte-identical-report guarantee of the simulation cache. Readers
// return false on short input instead of throwing: cache files and
// frames are untrusted input (corrupt, truncated or stale bytes must be
// ignored, never crash a run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ddtr::support {

// Writers append to a buffer, so a caller assembles a whole frame or
// file append in memory and hands it to the stream or socket at once.
void append_u32(std::string& out, std::uint32_t v);
void append_u64(std::string& out, std::uint64_t v);
void append_f64(std::string& out, double v);
// Length-prefixed (u64) raw bytes.
void append_string(std::string& out, const std::string& s);

// A bounded read cursor over bytes already in memory: a cache file, a
// frame header or a payload. Readers never read past its end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : rest_(bytes) {}

  bool at_end() const noexcept { return rest_.empty(); }
  std::size_t remaining() const noexcept { return rest_.size(); }

  // The next `size` bytes, consumed; nullptr, consuming nothing, when
  // fewer remain.
  const char* take(std::size_t size) noexcept {
    if (size > rest_.size()) return nullptr;
    const char* p = rest_.data();
    rest_.remove_prefix(size);
    return p;
  }

 private:
  std::string_view rest_;
};

// Each reader consumes its field, or returns false when too few bytes
// remain. read_string also rejects lengths above `max_size` (default
// 1 GiB), and allocates only once the cursor holds every byte the length
// prefix claims, so a corrupt prefix fails before any allocation it
// sized.
bool read_u32(ByteReader& in, std::uint32_t& v);
bool read_u64(ByteReader& in, std::uint64_t& v);
bool read_f64(ByteReader& in, double& v);
bool read_string(ByteReader& in, std::string& s,
                 std::uint64_t max_size = 1ull << 30);

// Crash-durability primitives for the write-temp + rename pattern: a
// rename is only atomic-and-durable if the temp file's CONTENT reached
// stable storage first (otherwise a crash right after the rename can
// surface an empty or truncated destination), and the rename itself only
// survives once the containing directory entry is synced. Both return
// false instead of throwing (persistence is best-effort by design); on
// platforms without fsync semantics they are no-ops returning true.
bool fsync_file(const std::string& path);
bool fsync_dir(const std::string& dir);

// Exclusive advisory lock (flock) on a directory, held until destruction.
// The lock belongs to the open file description, so two DirLocks on one
// directory exclude each other across threads and processes alike.
// locked() is false when the directory cannot be opened or locked; on
// platforms without flock the lock is a no-op that reports true.
class DirLock {
 public:
  explicit DirLock(const std::string& dir);
  ~DirLock();
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  bool locked() const noexcept { return locked_; }

 private:
  int fd_ = -1;
  bool locked_ = false;
};

}  // namespace ddtr::support

