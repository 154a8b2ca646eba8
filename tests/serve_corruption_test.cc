// Randomized corruption sweep over the serve wire decoders
// (serve/protocol.h). A seeded support::Rng drives thousands of byte
// flips and truncations against valid encodings; the contract under
// attack is:
//
//   - both frame decoders (the stream one clients use and the buffer one
//     the daemon reads its connections with) never crash, and anything
//     they accept (kOk) re-encodes to EXACTLY the bytes consumed — a
//     mutation can only be accepted by producing another fully valid
//     frame (e.g. a bit flip inside the payload AND a matching flip is
//     impossible, but a type-field flip onto another valid type is legal
//     wire).
//   - kOtherVersion only ever follows a flip of the version half-word,
//     and names the version the mutated header carries.
//   - a truncated frame is kCorrupt (torn) to the stream decoder, except
//     length zero, which is the clean kEof; to the buffer decoder every
//     proper prefix is kEof (not whole yet), and a header announcing
//     more than its bound is kCorrupt before any payload arrives.
//   - message payload codecs never crash, reject every proper prefix,
//     and anything they accept re-encodes byte-identically (exact
//     consumption + canonical little-endian encoding).
//
// The deterministic seed makes any failure reproducible from the test
// name alone; the sweep sizes keep this within tier-1 budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.h"
#include "support/rng.h"

namespace ddtr::serve {
namespace {

using support::Rng;

// A frame corpus spanning empty, small, binary and larger payloads.
std::vector<std::string> frame_corpus() {
  std::vector<std::string> wires;
  wires.push_back(encode_frame({FrameType::kStats, ""}));
  ErrorFrame error;
  error.message = "too many connections open; retry";
  wires.push_back(encode_frame({FrameType::kError, encode_error(error)}));
  SubmitRequest submit;
  submit.app = "url";
  submit.packets = 5000;
  wires.push_back(encode_frame({FrameType::kSubmit, encode_submit(submit)}));
  ResultFrame result;
  result.job_id = 7;
  result.app = "route";
  result.executed = 1234;
  result.report = "a\tb\tc\n1\t2\t3\n";
  result.records = std::string(512, '\xab') + std::string("\x00\xff\x7f", 3);
  wires.push_back(encode_frame({FrameType::kResult, encode_result(result)}));
  return wires;
}

std::string flip_random_bytes(const std::string& wire, Rng& rng) {
  std::string mutated = wire;
  const std::uint64_t flips = rng.uniform(1, 4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform(0, mutated.size() - 1));
    char mask = 0;
    while (mask == 0) mask = static_cast<char>(rng.uniform(0, 255));
    mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
  }
  return mutated;
}

// The version half-word of a frame's header (bytes 6 and 7).
std::uint16_t header_version(const std::string& wire) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(wire[6]) |
      static_cast<unsigned char>(wire[7]) << 8);
}

// A kOtherVersion outcome for `mutated`, a mutation of `wire`: only a
// flip of the version half-word may produce one, and it names the
// mutated version.
void expect_other_version(const std::string& wire, const std::string& mutated,
                          const Frame& out) {
  ASSERT_NE(header_version(mutated), header_version(wire))
      << "kOtherVersion without a flip of the version half-word";
  EXPECT_EQ(out.version, header_version(mutated));
}

TEST(ServeCorruptionSweep, RandomByteFlipsNeverCrashOrMisparse) {
  const auto wires = frame_corpus();
  Rng rng(0xdd7c0de5001ULL);
  std::size_t accepted = 0;
  std::size_t other_version = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string& wire =
        wires[static_cast<std::size_t>(rng.uniform(0, wires.size() - 1))];
    const std::string mutated = flip_random_bytes(wire, rng);
    if (mutated == wire) continue;  // the flips cancelled out
    std::istringstream is(mutated);
    Frame out;
    const DecodeStatus status = decode_frame(is, out);
    ASSERT_NE(status, DecodeStatus::kEof)
        << "a non-empty mutated frame can never be a clean EOF";
    if (status == DecodeStatus::kOtherVersion) {
      expect_other_version(wire, mutated, out);
      ++other_version;
    }
    if (status == DecodeStatus::kOk) {
      // Acceptance is only legal when the mutation produced another
      // fully valid frame: the re-encoding must reproduce the consumed
      // bytes exactly.
      const std::string reencoded = encode_frame(out);
      ASSERT_LE(reencoded.size(), mutated.size());
      ASSERT_EQ(reencoded, mutated.substr(0, reencoded.size()))
          << "decode_frame accepted bytes it cannot reproduce";
      ++accepted;
    }
  }
  // The checksum makes acceptance rare; the sweep is only meaningful if
  // the overwhelming majority of mutations were rejected. It reached the
  // version half-word too.
  EXPECT_LT(accepted, 40u);
  EXPECT_GT(other_version, 0u);
}

TEST(ServeCorruptionSweep, BufferDecoderFlipsNeverCrashOrMisparse) {
  const auto wires = frame_corpus();
  Rng rng(0xdd7c0de5004ULL);
  std::size_t accepted = 0;
  std::size_t other_version = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string& wire =
        wires[static_cast<std::size_t>(rng.uniform(0, wires.size() - 1))];
    const std::string mutated = flip_random_bytes(wire, rng);
    if (mutated == wire) continue;  // the flips cancelled out
    Frame out;
    std::size_t consumed = 0;
    const DecodeStatus status =
        decode_frame(mutated, kMaxPayloadBytes, out, consumed);
    if (status == DecodeStatus::kEof) {
      // Not whole yet: only a header announcing a larger payload waits.
      ASSERT_NE(mutated.substr(8, 8), wire.substr(8, 8))
          << "a whole frame with an intact size field read as unfinished";
    } else if (status == DecodeStatus::kOtherVersion) {
      expect_other_version(wire, mutated, out);
      ++other_version;
    } else if (status == DecodeStatus::kOk) {
      const std::string reencoded = encode_frame(out);
      ASSERT_EQ(consumed, reencoded.size());
      ASSERT_EQ(reencoded, mutated.substr(0, consumed))
          << "decode_frame accepted bytes it cannot reproduce";
      ++accepted;
    }
  }
  EXPECT_LT(accepted, 40u);
  EXPECT_GT(other_version, 0u);
}

TEST(ServeCorruptionSweep, RandomTruncationsAreTornNeverOk) {
  const auto wires = frame_corpus();
  Rng rng(0xdd7c0de5002ULL);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string& wire =
        wires[static_cast<std::size_t>(rng.uniform(0, wires.size() - 1))];
    const std::size_t keep =
        static_cast<std::size_t>(rng.uniform(0, wire.size() - 1));
    std::istringstream is(wire.substr(0, keep));
    Frame out;
    const DecodeStatus status = decode_frame(is, out);
    if (keep == 0) {
      EXPECT_EQ(status, DecodeStatus::kEof);
    } else {
      EXPECT_EQ(status, DecodeStatus::kCorrupt)
          << "prefix of " << keep << "/" << wire.size()
          << " bytes must be a torn frame";
    }
  }
}

// Every proper prefix of a frame is unfinished to the daemon's reader,
// never kOk and never corrupt: it waits for the rest.
TEST(ServeCorruptionSweep, BufferDecoderPrefixesAreNeverOk) {
  for (const std::string& wire : frame_corpus()) {
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      Frame out;
      std::size_t consumed = 0;
      ASSERT_EQ(decode_frame(std::string_view(wire).substr(0, keep),
                             kMaxPayloadBytes, out, consumed),
                DecodeStatus::kEof)
          << "prefix of " << keep << "/" << wire.size() << " bytes";
    }
  }
}

// A header announcing more than the reader's bound is corrupt from its 24
// bytes alone; one announcing exactly the bound waits for its payload.
TEST(ServeCorruptionSweep, BufferDecoderRefusesAnOversizedHeaderAtOnce) {
  constexpr std::uint64_t kBound = 4096;
  for (const std::uint64_t size :
       {kBound, kBound + 1, kMaxPayloadBytes, ~std::uint64_t{0}}) {
    std::string header = encode_frame({FrameType::kSubmit, ""});
    for (int byte = 0; byte < 8; ++byte) {
      header[8 + byte] = static_cast<char>(size >> (8 * byte));
    }
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(header, kBound, out, consumed),
              size == kBound ? DecodeStatus::kEof : DecodeStatus::kCorrupt)
        << size;
  }
}

// Frames sharing a buffer decode one at a time, in order, however their
// bytes arrive: a seeded split feeds the concatenated corpus in random
// chunks, and the buffer is drained the way the daemon drains a
// connection's input.
TEST(ServeCorruptionSweep, BufferDecoderTakesOneFrameAtATime) {
  const auto wires = frame_corpus();
  std::string all;
  for (const std::string& wire : wires) all += wire;
  Rng rng(0xdd7c0de5005ULL);
  for (int round = 0; round < 50; ++round) {
    std::string buffer;
    std::size_t fed = 0;
    std::size_t next = 0;
    while (fed < all.size() || !buffer.empty()) {
      // Round 0 puts every frame in one buffer at once.
      const std::size_t chunk =
          round == 0 ? all.size()
                     : static_cast<std::size_t>(rng.uniform(1, 64));
      buffer += all.substr(fed, chunk);
      fed = std::min(all.size(), fed + chunk);
      for (;;) {
        Frame out;
        std::size_t consumed = 0;
        const DecodeStatus status =
            decode_frame(buffer, kMaxPayloadBytes, out, consumed);
        if (status == DecodeStatus::kEof) break;
        ASSERT_EQ(status, DecodeStatus::kOk) << "round " << round;
        ASSERT_LT(next, wires.size());
        ASSERT_EQ(consumed, wires[next].size()) << "frame " << next;
        ASSERT_EQ(encode_frame(out), wires[next]) << "frame " << next;
        buffer.erase(0, consumed);
        ++next;
      }
      ASSERT_TRUE(fed < all.size() || buffer.empty())
          << "bytes left after the last frame";
    }
    EXPECT_EQ(next, wires.size()) << "round " << round;
  }
}

// One payload codec under the sweep: proper prefixes always decode
// false; flipped/extended payloads either decode false or decode to a
// message whose canonical re-encoding is byte-identical to the mutated
// input (exact consumption leaves no room for silent misparses).
template <typename Message, typename DecodeFn, typename EncodeFn>
void sweep_codec(const char* name, const std::string& valid,
                 DecodeFn decode_fn, EncodeFn encode_fn, Rng& rng) {
  SCOPED_TRACE(name);
  for (std::size_t keep = 0; keep < valid.size(); ++keep) {
    Message m;
    EXPECT_FALSE(decode_fn(valid.substr(0, keep), m))
        << name << ": accepted a " << keep << "/" << valid.size()
        << "-byte prefix";
  }
  for (int iter = 0; iter < 600; ++iter) {
    std::string mutated = valid.empty() ? std::string(1, '\x01')
                                        : flip_random_bytes(valid, rng);
    if (rng.chance(0.25)) {
      mutated += static_cast<char>(rng.uniform(0, 255));  // trailing junk
    }
    if (mutated == valid) continue;
    Message m;
    if (decode_fn(mutated, m)) {
      EXPECT_EQ(encode_fn(m), mutated)
          << name << ": accepted a payload it cannot reproduce";
    }
  }
}

TEST(ServeCorruptionSweep, PayloadCodecsRejectOrRoundTripExactly) {
  Rng rng(0xdd7c0de5003ULL);

  SubmitRequest submit;
  submit.app = "drr";
  submit.scale = 0.5;
  submit.packets = 123456;
  submit.survivor_cap = 0.5;
  sweep_codec<SubmitRequest>("submit", encode_submit(submit), decode_submit,
                             encode_submit, rng);

  ResultFrame result;
  result.job_id = 11;
  result.app = "ipchains";
  result.executed = 2;
  result.report = "report";
  result.records = std::string("\x01\x02\x00\xfe", 4);
  sweep_codec<ResultFrame>("result", encode_result(result), decode_result,
                           encode_result, rng);

  ErrorFrame error;
  error.message = "unknown app 'nope'";
  sweep_codec<ErrorFrame>("error", encode_error(error), decode_error,
                          encode_error, rng);

  StatsReply stats_reply;
  stats_reply.uptime_ms = 91234;
  stats_reply.warm_entries = 61;
  stats_reply.warm_traces = 7;
  stats_reply.sessions_served = 4;
  stats_reply.cache_hits = 1200;
  stats_reply.cache_misses = 34;
  stats_reply.jobs_submitted = 2;
  stats_reply.jobs.push_back({1, "url", "done", 0, 12, 15, 830});
  stats_reply.jobs.push_back({2, "drr", "running", 777, 900, 905, 0});
  sweep_codec<StatsReply>("stats_reply", encode_stats_reply(stats_reply),
                          decode_stats_reply, encode_stats_reply, rng);
}

}  // namespace
}  // namespace ddtr::serve
