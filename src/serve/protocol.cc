#include "serve/protocol.h"

#include <cerrno>
#include <cstddef>
#include <istream>
#include <string>
#include <string_view>

#include <sys/socket.h>
#include <unistd.h>

#include "support/binary_io.h"
#include "support/fnv_hash.h"

namespace ddtr::serve {
namespace {

// "DSRV" read back as a little-endian u32, mirroring the persistent
// cache's kEntryMagic convention.
constexpr std::uint32_t kFrameMagic = 0x56525344u;
// magic, type, version, payload size, payload checksum.
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8 + 8;

// Exactly the assigned FrameType values: an unassigned or retired type is
// as corrupt as a bad magic.
bool valid_type(std::uint16_t raw) {
  switch (static_cast<FrameType>(raw)) {
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

// A frame header's fields past the magic and the version.
struct Header {
  std::uint16_t type = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

// Reads the header in `bytes` into `h` and `frame.version`. kCorrupt for
// a bad magic, or for a current-version header with an unassigned type or
// a payload over `max_payload`; kOtherVersion for the right magic and
// another version, whose other fields are not this version's to read.
DecodeStatus parse_header(const char* bytes, std::uint64_t max_payload,
                          Header& h, Frame& frame) {
  support::ByteReader in(std::string_view(bytes, kHeaderBytes));
  std::uint32_t magic = 0;
  std::uint32_t type_and_version = 0;
  if (!support::read_u32(in, magic) || magic != kFrameMagic ||
      !support::read_u32(in, type_and_version)) {
    return DecodeStatus::kCorrupt;
  }
  frame.version = static_cast<std::uint16_t>(type_and_version >> 16);
  if (frame.version != kProtocolVersion) return DecodeStatus::kOtherVersion;
  h.type = static_cast<std::uint16_t>(type_and_version);
  return valid_type(h.type) && support::read_u64(in, h.size) &&
                 h.size <= max_payload && support::read_u64(in, h.checksum)
             ? DecodeStatus::kOk
             : DecodeStatus::kCorrupt;
}

// The frame `h` announced, when `payload` matches its checksum.
DecodeStatus accept(const Header& h, std::string&& payload, Frame& frame) {
  if (support::word_hash64(payload.data(), payload.size()) != h.checksum) {
    return DecodeStatus::kCorrupt;
  }
  frame.type = static_cast<FrameType>(h.type);
  frame.payload = std::move(payload);
  return DecodeStatus::kOk;
}

bool at_end(std::istream& is) {
  return is.peek() == std::char_traits<char>::eof();
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderBytes + frame.payload.size());
  support::append_u32(out, kFrameMagic);
  support::append_u32(out, static_cast<std::uint32_t>(frame.type) |
                               std::uint32_t{frame.version} << 16);
  support::append_u64(out, frame.payload.size());
  support::append_u64(out, support::word_hash64(frame.payload.data(),
                                                frame.payload.size()));
  out += frame.payload;
  return out;
}

DecodeStatus decode_frame(std::istream& is, Frame& frame) {
  if (at_end(is)) return DecodeStatus::kEof;
  char bytes[kHeaderBytes];
  if (!is.read(bytes, sizeof(bytes))) return DecodeStatus::kCorrupt;
  Header h;
  const DecodeStatus header = parse_header(bytes, kMaxPayloadBytes, h, frame);
  if (header != DecodeStatus::kOk) return header;
  std::string payload(h.size, '\0');
  if (h.size > 0) {
    is.read(payload.data(), static_cast<std::streamsize>(h.size));
    if (static_cast<std::uint64_t>(is.gcount()) != h.size) {
      return DecodeStatus::kCorrupt;
    }
  }
  return accept(h, std::move(payload), frame);
}

DecodeStatus decode_frame(std::string_view buffer, std::uint64_t max_payload,
                          Frame& frame, std::size_t& consumed) {
  if (buffer.size() < kHeaderBytes) return DecodeStatus::kEof;
  Header h;
  const DecodeStatus header =
      parse_header(buffer.data(), max_payload, h, frame);
  if (header != DecodeStatus::kOk) return header;
  if (buffer.size() - kHeaderBytes < h.size) return DecodeStatus::kEof;
  consumed = kHeaderBytes + h.size;
  return accept(h, std::string(buffer.substr(kHeaderBytes, h.size)), frame);
}

bool send_frame(int fd, const Frame& frame) {
  const std::string wire = encode_frame(frame);
  return write_all(fd, wire.data(), wire.size());
}

DecodeStatus recv_frame(int fd, Frame& frame) {
  char bytes[kHeaderBytes];
  const int got = read_exact(fd, bytes, sizeof(bytes));
  if (got == 0) return DecodeStatus::kEof;
  if (got < 0) return DecodeStatus::kCorrupt;
  Header h;
  const DecodeStatus header = parse_header(bytes, kMaxPayloadBytes, h, frame);
  if (header != DecodeStatus::kOk) return header;
  std::string payload(h.size, '\0');
  if (h.size > 0 && read_exact(fd, payload.data(), h.size) != 1) {
    return DecodeStatus::kCorrupt;
  }
  return accept(h, std::move(payload), frame);
}

// --- Message codecs ----------------------------------------------------
// Decoders insist on exact consumption (no trailing bytes): a payload
// longer than its message is as suspect as a short one.

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
  support::ByteReader in(payload);
  return support::read_string(in, m.app) && support::read_f64(in, m.scale) &&
         support::read_u64(in, m.packets) &&
         support::read_u64(in, m.seed_offset) &&
         support::read_u32(in, m.greedy) &&
         support::read_f64(in, m.survivor_cap) && in.at_end();
}

std::string encode_result(const ResultFrame& m) {
  std::string out;
  out.reserve(5 * 8 + m.app.size() + m.report.size() + m.records.size());
  support::append_u64(out, m.job_id);
  support::append_string(out, m.app);
  support::append_u64(out, m.executed);
  support::append_string(out, m.report);
  support::append_string(out, m.records);
  return out;
}

bool decode_result(const std::string& payload, ResultFrame& m) {
  support::ByteReader in(payload);
  return support::read_u64(in, m.job_id) && support::read_string(in, m.app) &&
         support::read_u64(in, m.executed) &&
         support::read_string(in, m.report) &&
         support::read_string(in, m.records) && in.at_end();
}

std::string encode_error(const ErrorFrame& m) {
  std::string out;
  support::append_string(out, m.message);
  return out;
}

bool decode_error(const std::string& payload, ErrorFrame& m) {
  support::ByteReader in(payload);
  return support::read_string(in, m.message) && in.at_end();
}

std::string encode_stats_reply(const StatsReply& m) {
  std::string out;
  support::append_u64(out, m.uptime_ms);
  support::append_u64(out, m.warm_entries);
  support::append_u64(out, m.warm_traces);
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
  support::ByteReader in(payload);
  std::uint64_t count = 0;
  if (!support::read_u64(in, m.uptime_ms) ||
      !support::read_u64(in, m.warm_entries) ||
      !support::read_u64(in, m.warm_traces) ||
      !support::read_u64(in, m.sessions_served) ||
      !support::read_u64(in, m.cache_hits) ||
      !support::read_u64(in, m.cache_misses) ||
      !support::read_u64(in, m.jobs_submitted) ||
      !support::read_u64(in, count)) {
    return false;
  }
  // Rows grow as they decode, never reserved from `count`: a corrupt
  // count fails when the payload runs dry, not after an allocation it
  // sized (the read_string rule).
  m.jobs.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    JobStats job;
    if (!support::read_u64(in, job.id) || !support::read_string(in, job.app) ||
        !support::read_string(in, job.state) ||
        !support::read_u64(in, job.last_executed) ||
        !support::read_u64(in, job.submit_ms) ||
        !support::read_u64(in, job.start_ms) ||
        !support::read_u64(in, job.finish_ms)) {
      return false;
    }
    m.jobs.push_back(std::move(job));
  }
  return in.at_end();
}

}  // namespace ddtr::serve
