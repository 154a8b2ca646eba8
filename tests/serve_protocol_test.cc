// Wire-level contract of the serve protocol (serve/protocol.h): frame
// round-trips through streams and socketpairs, clean-EOF vs torn-frame
// discrimination, checksum/magic/size rejection, headers of other protocol
// versions told apart from corrupt ones by every decoder, the exact bytes
// of one v10 frame, a checksum every single-byte flip changes, and field-exact
// message codec round-trips — including hostile payloads (trailing garbage,
// truncation, absurd counts), which must decode to false, never crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "api/ddtr.h"
#include "core/report.h"
#include "serve/protocol.h"
#include "support/binary_io.h"
#include "support/fnv_hash.h"

namespace ddtr::serve {
namespace {

Frame roundtrip(const Frame& in) {
  std::istringstream is(encode_frame(in));
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kOk);
  return out;
}

TEST(ServeFrame, RoundTripsPayload) {
  Frame in{FrameType::kSubmit, std::string("hello\0world", 11)};
  const Frame out = roundtrip(in);
  EXPECT_EQ(out.type, FrameType::kSubmit);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(ServeFrame, RoundTripsEmptyPayload) {
  const Frame out = roundtrip({FrameType::kStats, ""});
  EXPECT_EQ(out.type, FrameType::kStats);
  EXPECT_TRUE(out.payload.empty());
}

TEST(ServeFrame, EmptyStreamIsCleanEof) {
  std::istringstream is("");
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kEof);
}

TEST(ServeFrame, TruncatedHeaderIsCorrupt) {
  const std::string wire = encode_frame({FrameType::kSubmit, "abc"});
  std::istringstream is(wire.substr(0, 10));
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, TruncatedPayloadIsCorrupt) {
  const std::string wire = encode_frame({FrameType::kSubmit, "abcdefgh"});
  std::istringstream is(wire.substr(0, wire.size() - 3));
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, FlippedPayloadByteFailsChecksum) {
  std::string wire = encode_frame({FrameType::kResult, "records..."});
  wire[wire.size() - 1] ^= 0x5a;
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, WrongMagicIsCorrupt) {
  std::string wire = encode_frame({FrameType::kStats, ""});
  wire[0] ^= 0xff;
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, UnknownTypeIsCorrupt) {
  std::string wire = encode_frame({FrameType::kStats, ""});
  wire[4] = 99;  // type field, little-endian low byte
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, RetiredTypeIsCorrupt) {
  // 1 and 2 were the handshake's hello and its ack, 4 and 5 the submit ack
  // and progress tick, 8 the job-table query, 11 and 12 the shutdown
  // request and its ack: unassigned values inside the assigned range
  // decode like any unknown.
  for (const std::uint16_t type : {1u, 2u, 4u, 5u, 8u, 11u, 12u}) {
    const std::string wire =
        encode_frame({static_cast<FrameType>(type), "payload"});
    std::istringstream is(wire);
    Frame out;
    EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt) << type;

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    EXPECT_EQ(recv_frame(fds[1], out), DecodeStatus::kCorrupt) << type;
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(ServeFrame, AbsurdSizeIsCorruptNotAllocation) {
  std::string wire = encode_frame({FrameType::kStats, ""});
  for (int i = 8; i < 16; ++i) wire[i] = '\xff';  // size field
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, SendRecvOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Frame in{FrameType::kStatsReply, std::string("\x01\x00\x02", 3)};
  ASSERT_TRUE(send_frame(fds[0], in));
  Frame out;
  EXPECT_EQ(recv_frame(fds[1], out), DecodeStatus::kOk);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.payload, in.payload);
  // Peer close between frames: clean EOF, not corruption.
  ::close(fds[0]);
  EXPECT_EQ(recv_frame(fds[1], out), DecodeStatus::kEof);
  ::close(fds[1]);
}

TEST(ServeFrame, TornSocketFrameIsCorrupt) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string wire = encode_frame({FrameType::kResult, "partial"});
  // Send all but the last byte, then hang up mid-frame.
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size() - 1, 0),
            static_cast<ssize_t>(wire.size() - 1));
  ::close(fds[0]);
  Frame out;
  EXPECT_EQ(recv_frame(fds[1], out), DecodeStatus::kCorrupt);
  ::close(fds[1]);
}

// Little-endian encodings written out by hand, independent of
// support/binary_io, so the expected frame below pins the format itself.
void put_le(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

TEST(ServeFrame, V10FrameBytesArePinned) {
  ASSERT_EQ(kProtocolVersion, 10u);
  SubmitRequest m;
  m.app = "url";
  m.scale = 0.5;  // 0x3fe0000000000000
  m.packets = 1000;
  m.seed_offset = 3;
  m.greedy = 1;
  m.survivor_cap = 0.25;  // 0x3fd0000000000000
  std::string payload;
  put_le(payload, 3, 8);
  payload += "url";
  put_le(payload, 0x3fe0000000000000ull, 8);
  put_le(payload, 1000, 8);
  put_le(payload, 3, 8);
  put_le(payload, 1, 4);
  put_le(payload, 0x3fd0000000000000ull, 8);
  ASSERT_EQ(encode_submit(m), payload);
  // 47 bytes: one four-word block, one word and a 7-byte tail.
  ASSERT_EQ(payload.size(), 47u);

  std::string expected;
  put_le(expected, 0x56525344u, 4);  // "DSRV"
  put_le(expected, 3, 2);            // FrameType::kSubmit
  put_le(expected, 10, 2);           // kProtocolVersion
  put_le(expected, payload.size(), 8);
  put_le(expected, 0x3aa925953cced141ull, 8);  // word_hash64(payload)
  expected += payload;
  EXPECT_EQ(encode_frame({FrameType::kSubmit, payload}), expected);
}

// A header with the right magic and another version is kOtherVersion,
// naming that version, in all three decoders, whatever its other fields
// hold: a v9 frame (its type filled the whole second word, so its version
// half-word reads 0), a v9 frame with an unassigned type and a size past
// every bound, and forged v9 and v999 frames.
TEST(ServeFrame, EveryDecoderNamesAnotherVersion) {
  // The frame every v9 connection opened with: type 1, payload u32 9.
  std::string v9_opening;
  std::string payload;
  put_le(payload, 9, 4);
  put_le(v9_opening, 0x56525344u, 4);
  put_le(v9_opening, 1, 4);
  put_le(v9_opening, payload.size(), 8);
  put_le(v9_opening, support::word_hash64(payload.data(), payload.size()), 8);
  v9_opening += payload;
  std::string v9_junk = v9_opening;
  v9_junk[4] = 99;
  for (int i = 8; i < 16; ++i) v9_junk[i] = '\xff';
  const std::vector<std::pair<std::string, std::uint16_t>> cases = {
      {v9_opening, 0},
      {v9_junk, 0},
      {encode_frame({FrameType::kSubmit, "payload", 9}), 9},
      {encode_frame({FrameType::kStats, "", 999}), 999}};
  for (const auto& [wire, version] : cases) {
    SCOPED_TRACE(version);
    std::istringstream is(wire);
    Frame out;
    EXPECT_EQ(decode_frame(is, out), DecodeStatus::kOtherVersion);
    EXPECT_EQ(out.version, version);

    out = Frame{};
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(wire, 64, out, consumed),
              DecodeStatus::kOtherVersion);
    EXPECT_EQ(out.version, version);
    EXPECT_EQ(consumed, 0u);
    // Before a whole header there is nothing to name yet.
    EXPECT_EQ(decode_frame(std::string_view(wire).substr(0, 23), 64, out,
                           consumed),
              DecodeStatus::kEof);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A current frame first: the stream stays framed up to the other one.
    ASSERT_TRUE(send_frame(fds[0], {FrameType::kStats, ""}));
    ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    EXPECT_EQ(recv_frame(fds[1], out), DecodeStatus::kOk);
    EXPECT_EQ(out.version, kProtocolVersion);
    EXPECT_EQ(recv_frame(fds[1], out), DecodeStatus::kOtherVersion);
    EXPECT_EQ(out.version, version);
    ::close(fds[0]);
    ::close(fds[1]);
  }
  // A bad magic is corrupt whatever the version half-word holds.
  std::string wire = encode_frame({FrameType::kStats, "", 999});
  wire[0] ^= 0x01;
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

// Every single-byte flip of a payload changes its checksum, and the frame
// carrying it decodes as corrupt: payloads of 0-70 bytes hit every tail
// length behind blocks and words, and a real result payload the bulk path.
TEST(ServeFrame, EveryByteFlipChangesTheChecksum) {
  for (std::size_t size = 0; size <= 70; ++size) {
    std::string payload;
    for (std::size_t i = 0; i < size; ++i) {
      payload.push_back(static_cast<char>(i * 37 + size));
    }
    const std::uint64_t intact =
        support::word_hash64(payload.data(), payload.size());
    const std::string wire = encode_frame({FrameType::kResult, payload});
    for (std::size_t at = 0; at < size; ++at) {
      for (const unsigned char mask : {0x01, 0x80, 0xff}) {
        std::string flipped = payload;
        flipped[at] = static_cast<char>(flipped[at] ^ mask);
        ASSERT_NE(support::word_hash64(flipped.data(), flipped.size()),
                  intact)
            << "size " << size << ", offset " << at << ", mask " << +mask;
        std::string bad_wire = wire;
        bad_wire[wire.size() - size + at] = flipped[at];
        std::istringstream is(bad_wire);
        Frame out;
        ASSERT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt)
            << "size " << size << ", offset " << at;
      }
    }
  }

  api::Exploration exploration(
      api::registry().make_study("url", core::CaseStudyOptions{}.scaled(0.05)));
  const core::ExplorationReport& report = exploration.run();
  std::ostringstream printed;
  core::print_report(printed, report, "");
  const std::string payload =
      encode_result({1, report.app_name, report.executed_simulations(),
                     printed.str(), report.serialized_records()});
  ASSERT_GT(payload.size(), 4096u);
  const std::uint64_t intact =
      support::word_hash64(payload.data(), payload.size());
  std::string flipped = payload;
  for (std::size_t at = 0; at < payload.size(); ++at) {
    flipped[at] = static_cast<char>(payload[at] ^ 0x01);
    ASSERT_NE(support::word_hash64(flipped.data(), flipped.size()), intact)
        << "offset " << at;
    flipped[at] = payload[at];
  }
}

TEST(ServeMessages, SubmitRoundTripAllFields) {
  SubmitRequest in;
  in.app = "url";
  in.scale = 0.125;
  in.packets = 2048;
  in.seed_offset = 3;
  in.greedy = 1;
  in.survivor_cap = 0.4;
  SubmitRequest out;
  ASSERT_TRUE(decode_submit(encode_submit(in), out));
  EXPECT_EQ(out.app, "url");
  EXPECT_DOUBLE_EQ(out.scale, 0.125);
  EXPECT_EQ(out.packets, 2048u);
  EXPECT_EQ(out.seed_offset, 3u);
  EXPECT_EQ(out.greedy, 1u);
  EXPECT_DOUBLE_EQ(out.survivor_cap, 0.4);
  // v8 layout: app, f64 scale, u64 packets, u64 seed_offset, u32 greedy,
  // f64 survivor_cap; strings are u64-length-prefixed.
  const std::string wire = encode_submit(in);
  EXPECT_EQ(wire.size(), (8u + 3u) + 8u + 8u + 8u + 4u + 8u);
  // A v7 submit (two metric names more) is trailing garbage to a v8 peer.
  std::string v7 = wire;
  support::append_string(v7, "time");
  support::append_string(v7, "energy");
  EXPECT_FALSE(decode_submit(v7, out));
  // Any truncation must fail, at every cut point.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(decode_submit(wire.substr(0, cut), out)) << "cut=" << cut;
  }
}

TEST(ServeMessages, ResultRoundTripKeepsRecordsByteExact) {
  ResultFrame in;
  in.job_id = 42;
  in.app = "Route";
  in.executed = 0;
  in.report = "application: Route\nPareto-optimal combinations:\n";
  in.records = std::string("binary\0records\n\xff with every byte", 31);
  ResultFrame out;
  ASSERT_TRUE(decode_result(encode_result(in), out));
  EXPECT_EQ(out.job_id, 42u);
  EXPECT_EQ(out.app, "Route");
  EXPECT_EQ(out.executed, 0u);
  EXPECT_EQ(out.report, in.report);
  EXPECT_EQ(out.records, in.records);
  // v8 layout: u64 job_id, app, u64 executed, report, records.
  EXPECT_EQ(encode_result(in).size(),
            8u + (8u + 5u) + 8u + (8u + in.report.size()) + (8u + 31u));
}

TEST(ServeMessages, StatsReplyRoundTripsWarmTraces) {
  StatsReply in;
  in.uptime_ms = 1500;
  in.warm_entries = 165;
  in.warm_traces = 5;
  in.sessions_served = 3;
  in.cache_hits = 11;
  in.cache_misses = 165;
  in.jobs_submitted = 1;
  in.jobs.push_back({1, "url", "done", 165, 2, 3, 40});
  const std::string wire = encode_stats_reply(in);
  // v10 layout: seven u64 counters (warm_traces after warm_entries), a
  // u64 row count, then the rows.
  EXPECT_EQ(wire.size(), 8u * 8u + (8u + (8u + 3u) + (8u + 4u) + 4u * 8u));
  StatsReply out;
  ASSERT_TRUE(decode_stats_reply(wire, out));
  EXPECT_EQ(out.warm_entries, 165u);
  EXPECT_EQ(out.warm_traces, 5u);
  EXPECT_EQ(out.sessions_served, 3u);
  EXPECT_EQ(out.jobs_submitted, 1u);
  ASSERT_EQ(out.jobs.size(), 1u);
  EXPECT_EQ(out.jobs[0].finish_ms, 40u);
  EXPECT_EQ(encode_stats_reply(out), wire);
}

TEST(ServeMessages, StatsReplyRowCountAllocatesNothing) {
  // Seven counters and a row count claiming 2^20 rows, with no rows: 64
  // bytes that must fail to decode without a job table sized by the
  // count (2^20 JobStats would be over 100 MB).
  for (const std::uint64_t count : {std::uint64_t{1} << 20,
                                    std::uint64_t{1} << 40}) {
    std::string payload;
    for (int i = 0; i < 7; ++i) support::append_u64(payload, 1);
    support::append_u64(payload, count);
    ASSERT_EQ(payload.size(), 64u);
    StatsReply out;
    EXPECT_FALSE(decode_stats_reply(payload, out));
    EXPECT_LT(out.jobs.capacity(), 16u) << count;
  }
}

TEST(ServeMessages, SmallMessagesRoundTrip) {
  ErrorFrame error_out;
  ASSERT_TRUE(decode_error(encode_error({"bad app"}), error_out));
  EXPECT_EQ(error_out.message, "bad app");
}

}  // namespace
}  // namespace ddtr::serve
