// Wire protocol of the `ddtr serve` daemon (see src/serve/server.h): a
// simple length-prefixed binary framing over a unix-domain stream socket,
// built on the same support/binary_io primitives — and the same
// robustness contract — as the persistent cache files. Every frame is
//
//   u32 magic ("DSRV")  u16 type  u16 version  u64 payload_size
//   u64 word_hash64(payload)  payload bytes
//
// (support/fnv_hash.h's word-wise checksum; cache file entries keep
// FNV-1a), so a reader can (a) skip nothing — streams are trusted to be framed or
// dropped, never resynchronized — and (b) reject a torn or corrupted
// frame cleanly: decode returns kCorrupt, the peer closes the
// connection. Every frame carries kProtocolVersion, so there is no
// handshake: a frame of another version decodes as kOtherVersion, naming
// that version, and is never parsed further. The daemon answers it with
// an Error frame naming both versions and a close; the client throws.
//
// Message payloads are encoded field-by-field with binary_io (little
// endian, length-prefixed strings, IEEE-754 doubles), so the protocol is
// host-independent and result records round-trip byte-exactly — the
// substrate of the warm-cache guarantee that a repeated submission
// returns a byte-identical report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ddtr::serve {

// Bump on ANY frame or payload layout change. Every later version keeps
// the magic and this version half-word at the same offsets of a 24-byte
// header, so any two peers can name each other's version. v10 moved the
// version into every frame header and retired the handshake frames
// (types 1 and 2); a v9 frame has zeros there and reads as version 0.
// v9 made the frame checksum support::word_hash64 in place of FNV-1a.
// v2-v8 retired the frame types listed under FrameType and fields no
// peer sends any more; `git log src/serve/protocol.h` has each bump.
inline constexpr std::uint16_t kProtocolVersion = 10;

// Frame types. Only these values decode: a retired type (1 and 2, 4, 5,
// 8-10, 11 and 12) is a corrupt frame.
enum class FrameType : std::uint16_t {
  kSubmit = 3,       // client -> server, one study submission
  kResult = 6,       // server -> client, the submit's report digest
  kError = 7,        // server -> client, request failed (message)
  kStats = 13,       // client -> server, stats snapshot (empty payload)
  kStatsReply = 14,  // server -> client, uptime / cache / job-table stats
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
  // The header's protocol version: a decoded kOk frame's is always
  // kProtocolVersion, a kOtherVersion header's is the peer's.
  std::uint16_t version = kProtocolVersion;
};

// How a decode ended. kEof is the CLEAN end: the stream was exhausted
// exactly at a frame boundary (the peer closed after a complete
// conversation). kOtherVersion is a header with the right magic and
// another version: only `frame.version` is set, and nothing past the
// header is read. Anything torn, oversized, checksum-mismatched or
// magic-less is kCorrupt — the connection is unusable from here on.
enum class DecodeStatus { kOk, kEof, kCorrupt, kOtherVersion };

// A frame carries at most one serialized ResultLog; 256 MiB is orders of
// magnitude above any real study and small enough that a corrupt length
// prefix cannot trigger a runaway allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 28;

// Frame <-> bytes. encode_frame never fails and writes `frame.version`;
// decode_frame consumes exactly one frame on kOk and an unspecified
// prefix otherwise.
std::string encode_frame(const Frame& frame);
DecodeStatus decode_frame(std::istream& is, Frame& frame);
// The frame at the front of `buffer`, the bytes a connection has sent so
// far: kOk sets `consumed` to its length, kEof means it is not whole yet,
// and a current-version header announcing more than `max_payload` bytes
// is kCorrupt before any of its payload arrives.
DecodeStatus decode_frame(std::string_view buffer, std::uint64_t max_payload,
                          Frame& frame, std::size_t& consumed);

// Frame I/O on a connected stream-socket fd. send_frame writes the whole
// encoding (short writes retried, SIGPIPE suppressed) and returns false
// on any failure; recv_frame reads exactly one frame.
bool send_frame(int fd, const Frame& frame);
DecodeStatus recv_frame(int fd, Frame& frame);

// --- Messages ----------------------------------------------------------
// Each message encodes to / decodes from a Frame payload. Decoders return
// false on a short or malformed payload (the caller treats that like a
// corrupt frame).

// Bounds of a submission's knobs, the same for `ddtr explore` and
// `ddtr submit` flags and for Server::validate: scale in (0, kMaxScale],
// survivor_cap in (0, kMaxSurvivorCap] (0 on the wire means "unset").
inline constexpr double kMaxScale = 100.0;
inline constexpr double kMaxSurvivorCap = 1.0;
// Largest `packets` override a submission may ask for: kMaxScale times
// the largest full trace (url, 10,000 packets).
inline constexpr std::uint64_t kMaxPackets = 1'000'000;

// One study submission: a registered workload name plus builder knobs.
// Zero values mean "the workload's default".
struct SubmitRequest {
  std::string app;
  double scale = 0.25;
  std::uint64_t packets = 0;      // CaseStudyOptions::packets (0 = scaled)
  std::uint64_t seed_offset = 0;  // trace generation seed offset
  std::uint32_t greedy = 0;       // 1 = Step1Policy::kGreedyPerSlot
  double survivor_cap = 0.0;      // survivor_cap_fraction (0 = default)
};

// One completed exploration. `report` is its core::print_report text, as
// `ddtr explore` prints it; `records` is the serialized ResultLog
// (ExplorationReport::serialized_records()) — the repo-wide definition of
// "byte-identical reports", which is what makes the warm-cache acceptance
// check exact.
struct ResultFrame {
  std::uint64_t job_id = 0;
  std::string app;
  std::uint64_t executed = 0;  // simulations this run computed
  std::string report;
  std::string records;  // serialized ResultLog, byte-exact
};

struct ErrorFrame {
  std::string message;
};

// One job-table row with its lifecycle timestamps. Timestamps are
// steady-clock milliseconds since daemon boot (0 = not yet reached), so
// they are comparable to StatsReply::uptime_ms and carry no wall-clock
// dependence.
struct JobStats {
  std::uint64_t id = 0;
  std::string app;
  std::string state;  // "queued" | "running" | "done" | "failed"
  std::uint64_t last_executed = 0;
  std::uint64_t submit_ms = 0;
  std::uint64_t start_ms = 0;
  std::uint64_t finish_ms = 0;
};

struct StatsReply {
  std::uint64_t uptime_ms = 0;
  std::uint64_t warm_entries = 0;  // simulation records held in memory
  std::uint64_t warm_traces = 0;   // traces held by the TraceStore
  std::uint64_t sessions_served = 0;
  std::uint64_t cache_hits = 0;    // in-memory cache hits since boot
  std::uint64_t cache_misses = 0;  // executed simulations since boot
  std::uint64_t jobs_submitted = 0;
  std::vector<JobStats> jobs;
};

std::string encode_submit(const SubmitRequest& m);
bool decode_submit(const std::string& payload, SubmitRequest& m);
std::string encode_result(const ResultFrame& m);
bool decode_result(const std::string& payload, ResultFrame& m);
std::string encode_error(const ErrorFrame& m);
bool decode_error(const std::string& payload, ErrorFrame& m);
std::string encode_stats_reply(const StatsReply& m);
bool decode_stats_reply(const std::string& payload, StatsReply& m);

}  // namespace ddtr::serve

