// Randomized corruption sweep over the serve wire decoders
// (serve/protocol.h). A seeded support::Rng drives thousands of byte
// flips and truncations against valid encodings; the contract under
// attack is:
//
//   - decode_frame never crashes, and anything it accepts (kOk)
//     re-encodes to EXACTLY the bytes it consumed — a mutation can only
//     be accepted by producing another fully valid frame (e.g. a bit
//     flip inside the payload AND a matching flip is impossible, but a
//     type-field flip onto another valid type is legal wire).
//   - a truncated frame is kCorrupt (torn), except length zero, which
//     is the clean kEof.
//   - message payload codecs never crash, reject every proper prefix,
//     and anything they accept re-encodes byte-identically (exact
//     consumption + canonical little-endian encoding).
//
// The deterministic seed makes any failure reproducible from the test
// name alone; the sweep sizes keep this within tier-1 budget.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
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
  wires.push_back(encode_frame({FrameType::kHello, encode_hello(Hello{})}));
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

TEST(ServeCorruptionSweep, RandomByteFlipsNeverCrashOrMisparse) {
  const auto wires = frame_corpus();
  Rng rng(0xdd7c0de5001ULL);
  std::size_t accepted = 0;
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
  // the overwhelming majority of mutations were rejected.
  EXPECT_LT(accepted, 40u);
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

  Hello hello;
  sweep_codec<Hello>("hello", encode_hello(hello), decode_hello,
                     encode_hello, rng);

  HelloAck hello_ack;
  hello_ack.warm_entries = 42;
  sweep_codec<HelloAck>("hello_ack", encode_hello_ack(hello_ack),
                        decode_hello_ack, encode_hello_ack, rng);

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
