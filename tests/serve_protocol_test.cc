// Wire-level contract of the serve protocol (serve/protocol.h): frame
// round-trips through streams and socketpairs, clean-EOF vs torn-frame
// discrimination, checksum/magic/size rejection, the exact bytes of one
// v9 frame, a checksum every single-byte flip changes, and field-exact
// message codec round-trips — including hostile payloads (trailing garbage,
// truncation, absurd counts), which must decode to false, never crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

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
  const std::string wire = encode_frame({FrameType::kHello, "abc"});
  std::istringstream is(wire.substr(0, 10));
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, TruncatedPayloadIsCorrupt) {
  const std::string wire = encode_frame({FrameType::kHello, "abcdefgh"});
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
  std::string wire = encode_frame({FrameType::kHello, ""});
  wire[0] ^= 0xff;
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, UnknownTypeIsCorrupt) {
  std::string wire = encode_frame({FrameType::kHello, ""});
  wire[4] = 99;  // type field, little-endian low byte
  std::istringstream is(wire);
  Frame out;
  EXPECT_EQ(decode_frame(is, out), DecodeStatus::kCorrupt);
}

TEST(ServeFrame, RetiredTypeIsCorrupt) {
  // 4 and 5 were the submit ack and progress tick, 8 the job-table query,
  // 11 and 12 the shutdown request and its ack: unassigned values inside
  // the assigned range decode like any unknown.
  for (const std::uint32_t type : {4u, 5u, 8u, 11u, 12u}) {
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
  std::string wire = encode_frame({FrameType::kHello, ""});
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

TEST(ServeFrame, V9FrameBytesArePinned) {
  ASSERT_EQ(kProtocolVersion, 9u);
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
  put_le(expected, 3, 4);            // FrameType::kSubmit
  put_le(expected, payload.size(), 8);
  put_le(expected, 0x3aa925953cced141ull, 8);  // word_hash64(payload)
  expected += payload;
  EXPECT_EQ(encode_frame({FrameType::kSubmit, payload}), expected);
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

TEST(ServeMessages, HelloRoundTripAndVersion) {
  Hello in;
  in.version = 7;
  Hello out;
  ASSERT_TRUE(decode_hello(encode_hello(in), out));
  EXPECT_EQ(out.version, 7u);
  EXPECT_FALSE(decode_hello("", out));                      // truncated
  EXPECT_FALSE(decode_hello(encode_hello(in) + "x", out));  // trailing
}

TEST(ServeMessages, HelloAckRoundTrip) {
  HelloAck in;
  in.warm_entries = 165;
  in.warm_traces = 5;
  const std::string wire = encode_hello_ack(in);
  // v6 layout: u32 version, u64 warm_entries, u64 warm_traces.
  EXPECT_EQ(wire.size(), 4u + 8u + 8u);
  HelloAck out;
  ASSERT_TRUE(decode_hello_ack(wire, out));
  EXPECT_EQ(out.version, kProtocolVersion);
  EXPECT_EQ(out.warm_entries, 165u);
  EXPECT_EQ(out.warm_traces, 5u);
  // A v5 ack (one more f64) is trailing garbage to a v6 peer.
  EXPECT_FALSE(decode_hello_ack(wire + std::string(8, '\0'), out));
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

TEST(ServeMessages, StatsReplyRowCountAllocatesNothing) {
  // Six counters and a row count claiming 2^20 rows, with no rows: 56
  // bytes that must fail to decode without a job table sized by the
  // count (2^20 JobStats would be over 100 MB).
  for (const std::uint64_t count : {std::uint64_t{1} << 20,
                                    std::uint64_t{1} << 40}) {
    std::string payload;
    for (int i = 0; i < 6; ++i) support::append_u64(payload, 1);
    support::append_u64(payload, count);
    ASSERT_EQ(payload.size(), 56u);
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
