#include "serve/protocol.h"

#include <cerrno>
#include <cstddef>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "support/binary_io.h"
#include "support/fnv_hash.h"

namespace ddtr::serve {
namespace {

// "DSRV" read back as a little-endian u32, mirroring the persistent
// cache's kEntryMagic convention.
constexpr std::uint32_t kFrameMagic = 0x56525344u;

// A frame carries at most one serialized ResultLog; 256 MiB is orders of
// magnitude above any real study and small enough that a corrupt length
// prefix cannot trigger a runaway allocation.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 28;

// Exactly the assigned FrameType values: an unassigned or retired type is
// as corrupt as a bad magic.
bool valid_type(std::uint32_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kSubmit:
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kStats:
    case FrameType::kStatsReply:
      return true;
  }
  return false;
}

// Reads exactly `size` bytes from a connected fd. Returns 1 on success,
// 0 on a clean EOF (peer closed before the first byte), -1 on an error
// or a mid-buffer EOF (torn frame).
int read_exact(int fd, void* buf, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t r =
        ::recv(fd, static_cast<char*>(buf) + got, size - got, 0);
    if (r == 0) return got == 0 ? 0 : -1;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

bool write_all(int fd, const char* buf, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE —
    // the daemon outlives any single client.
    const ssize_t r = ::send(fd, buf + sent, size - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

std::uint32_t load_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

bool at_end(std::istream& is) {
  return is.peek() == std::char_traits<char>::eof();
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  std::string out;
  support::append_u32(out, kFrameMagic);
  support::append_u32(out, static_cast<std::uint32_t>(frame.type));
  support::append_u64(out, frame.payload.size());
  support::append_u64(
      out, support::fnv1a64(frame.payload.data(), frame.payload.size()));
  out += frame.payload;
  return out;
}

DecodeStatus decode_frame(std::istream& is, Frame& frame) {
  if (at_end(is)) return DecodeStatus::kEof;
  std::uint32_t magic = 0;
  std::uint32_t raw_type = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  if (!support::read_u32(is, magic) || !support::read_u32(is, raw_type) ||
      !support::read_u64(is, size) || !support::read_u64(is, checksum)) {
    return DecodeStatus::kCorrupt;
  }
  if (magic != kFrameMagic || !valid_type(raw_type) ||
      size > kMaxPayloadBytes) {
    return DecodeStatus::kCorrupt;
  }
  std::string payload(size, '\0');
  if (size > 0) {
    is.read(payload.data(), static_cast<std::streamsize>(size));
    if (static_cast<std::uint64_t>(is.gcount()) != size) {
      return DecodeStatus::kCorrupt;
    }
  }
  if (support::fnv1a64(payload.data(), payload.size()) != checksum) {
    return DecodeStatus::kCorrupt;
  }
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload = std::move(payload);
  return DecodeStatus::kOk;
}

bool send_frame(int fd, const Frame& frame) {
  const std::string wire = encode_frame(frame);
  return write_all(fd, wire.data(), wire.size());
}

DecodeStatus recv_frame(int fd, Frame& frame) {
  unsigned char header[24];
  const int h = read_exact(fd, header, sizeof(header));
  if (h == 0) return DecodeStatus::kEof;
  if (h < 0) return DecodeStatus::kCorrupt;
  const std::uint32_t magic = load_u32(header);
  const std::uint32_t raw_type = load_u32(header + 4);
  const std::uint64_t size = load_u64(header + 8);
  const std::uint64_t checksum = load_u64(header + 16);
  if (magic != kFrameMagic || !valid_type(raw_type) ||
      size > kMaxPayloadBytes) {
    return DecodeStatus::kCorrupt;
  }
  std::string payload(size, '\0');
  if (size > 0 && read_exact(fd, payload.data(), size) != 1) {
    return DecodeStatus::kCorrupt;
  }
  if (support::fnv1a64(payload.data(), payload.size()) != checksum) {
    return DecodeStatus::kCorrupt;
  }
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload = std::move(payload);
  return DecodeStatus::kOk;
}

// --- Message codecs ----------------------------------------------------
// Decoders insist on exact consumption (no trailing bytes): a payload
// longer than its message is as suspect as a short one.

std::string encode_hello(const Hello& m) {
  std::string out;
  support::append_u32(out, m.version);
  return out;
}

bool decode_hello(const std::string& payload, Hello& m) {
  std::istringstream is(payload);
  return support::read_u32(is, m.version) && at_end(is);
}

std::string encode_hello_ack(const HelloAck& m) {
  std::string out;
  support::append_u32(out, m.version);
  support::append_u64(out, m.warm_entries);
  support::append_u64(out, m.warm_traces);
  return out;
}

bool decode_hello_ack(const std::string& payload, HelloAck& m) {
  std::istringstream is(payload);
  return support::read_u32(is, m.version) &&
         support::read_u64(is, m.warm_entries) &&
         support::read_u64(is, m.warm_traces) && at_end(is);
}

std::string encode_submit(const SubmitRequest& m) {
  std::string out;
  support::append_string(out, m.app);
  support::append_f64(out, m.scale);
  support::append_u64(out, m.packets);
  support::append_u64(out, m.seed_offset);
  support::append_u32(out, m.greedy);
  support::append_f64(out, m.survivor_cap);
  return out;
}

bool decode_submit(const std::string& payload, SubmitRequest& m) {
  std::istringstream is(payload);
  return support::read_string(is, m.app) && support::read_f64(is, m.scale) &&
         support::read_u64(is, m.packets) &&
         support::read_u64(is, m.seed_offset) &&
         support::read_u32(is, m.greedy) &&
         support::read_f64(is, m.survivor_cap) && at_end(is);
}

std::string encode_result(const ResultFrame& m) {
  std::string out;
  support::append_u64(out, m.job_id);
  support::append_string(out, m.app);
  support::append_u64(out, m.executed);
  support::append_string(out, m.report);
  support::append_string(out, m.records);
  return out;
}

bool decode_result(const std::string& payload, ResultFrame& m) {
  std::istringstream is(payload);
  return support::read_u64(is, m.job_id) && support::read_string(is, m.app) &&
         support::read_u64(is, m.executed) &&
         support::read_string(is, m.report) &&
         support::read_string(is, m.records) && at_end(is);
}

std::string encode_error(const ErrorFrame& m) {
  std::string out;
  support::append_string(out, m.message);
  return out;
}

bool decode_error(const std::string& payload, ErrorFrame& m) {
  std::istringstream is(payload);
  return support::read_string(is, m.message) && at_end(is);
}

std::string encode_stats_reply(const StatsReply& m) {
  std::string out;
  support::append_u64(out, m.uptime_ms);
  support::append_u64(out, m.warm_entries);
  support::append_u64(out, m.sessions_served);
  support::append_u64(out, m.cache_hits);
  support::append_u64(out, m.cache_misses);
  support::append_u64(out, m.jobs_submitted);
  support::append_u64(out, m.jobs.size());
  for (const JobStats& job : m.jobs) {
    support::append_u64(out, job.id);
    support::append_string(out, job.app);
    support::append_string(out, job.state);
    support::append_u64(out, job.last_executed);
    support::append_u64(out, job.submit_ms);
    support::append_u64(out, job.start_ms);
    support::append_u64(out, job.finish_ms);
  }
  return out;
}

bool decode_stats_reply(const std::string& payload, StatsReply& m) {
  std::istringstream is(payload);
  std::uint64_t count = 0;
  if (!support::read_u64(is, m.uptime_ms) ||
      !support::read_u64(is, m.warm_entries) ||
      !support::read_u64(is, m.sessions_served) ||
      !support::read_u64(is, m.cache_hits) ||
      !support::read_u64(is, m.cache_misses) ||
      !support::read_u64(is, m.jobs_submitted) ||
      !support::read_u64(is, count)) {
    return false;
  }
  // Rows grow as they decode, never reserved from `count`: a corrupt
  // count fails when the payload runs dry, not after an allocation it
  // sized (the read_string rule).
  m.jobs.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    JobStats job;
    if (!support::read_u64(is, job.id) || !support::read_string(is, job.app) ||
        !support::read_string(is, job.state) ||
        !support::read_u64(is, job.last_executed) ||
        !support::read_u64(is, job.submit_ms) ||
        !support::read_u64(is, job.start_ms) ||
        !support::read_u64(is, job.finish_ms)) {
      return false;
    }
    m.jobs.push_back(std::move(job));
  }
  return at_end(is);
}

}  // namespace ddtr::serve
