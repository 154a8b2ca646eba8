#include "support/binary_io.h"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace ddtr::support {

namespace {

void append_le(std::string& out, std::uint64_t v, int width) {
  char buf[8];
  for (int i = 0; i < width; ++i) {
    buf[i] = static_cast<char>(v >> (8 * i));
  }
  out.append(buf, static_cast<std::size_t>(width));
}

bool read_le(ByteReader& in, std::uint64_t& v, int width) {
  const char* p = in.take(static_cast<std::size_t>(width));
  if (p == nullptr) return false;
  v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return true;
}

}  // namespace

void append_u32(std::string& out, std::uint32_t v) { append_le(out, v, 4); }
void append_u64(std::string& out, std::uint64_t v) { append_le(out, v, 8); }
void append_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  append_le(out, bits, 8);
}

void append_string(std::string& out, const std::string& s) {
  append_u64(out, s.size());
  out += s;
}

bool read_u32(ByteReader& in, std::uint32_t& v) {
  std::uint64_t wide = 0;
  if (!read_le(in, wide, 4)) return false;
  v = static_cast<std::uint32_t>(wide);
  return true;
}

bool read_u64(ByteReader& in, std::uint64_t& v) {
  return read_le(in, v, 8);
}

bool read_f64(ByteReader& in, double& v) {
  std::uint64_t bits = 0;
  if (!read_le(in, bits, 8)) return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool read_string(ByteReader& in, std::string& s, std::uint64_t max_size) {
  std::uint64_t size = 0;
  if (!read_u64(in, size) || size > max_size) return false;
  const char* p = in.take(static_cast<std::size_t>(size));
  if (p == nullptr) return false;
  s.assign(p, static_cast<std::size_t>(size));
  return true;
}

#ifndef _WIN32

namespace {

bool fsync_fd_of(const char* path, int open_flags) {
  const int fd = ::open(path, open_flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool fsync_file(const std::string& path) {
  // A read-only descriptor suffices: fsync flushes the file, not the fd.
  return fsync_fd_of(path.c_str(), O_RDONLY);
}

bool fsync_dir(const std::string& dir) {
  return fsync_fd_of(dir.c_str(), O_RDONLY | O_DIRECTORY);
}

DirLock::DirLock(const std::string& dir)
    : fd_(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)) {
  if (fd_ < 0) return;
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno != EINTR) return;
  }
  locked_ = true;
}

DirLock::~DirLock() {
  if (fd_ >= 0) ::close(fd_);  // closing the description drops the lock
}

#else

bool fsync_file(const std::string&) { return true; }
bool fsync_dir(const std::string&) { return true; }

DirLock::DirLock(const std::string&) : locked_(true) {}
DirLock::~DirLock() = default;

#endif

}  // namespace ddtr::support
