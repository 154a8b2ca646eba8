// Trace substrate tests: generator determinism and realism, text
// round-trip, parameter extraction (the step-2 front-end), content-hash
// identity, and the TraceStore's keying and concurrency contracts.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nettrace/generator.h"
#include "nettrace/parser.h"
#include "nettrace/presets.h"
#include "nettrace/trace.h"
#include "nettrace/trace_store.h"

namespace ddtr::net {
namespace {

TraceGenerator::Options small_options() {
  TraceGenerator::Options options;
  options.packet_count = 4000;
  return options;
}

TEST(Presets, EightNetworksExist) {
  EXPECT_EQ(all_network_presets().size(), 8u);
  std::set<std::string> names;
  for (const auto& p : all_network_presets()) names.insert(p.name);
  EXPECT_EQ(names.size(), 8u);  // unique names
}

TEST(Presets, LookupByNameAndFailure) {
  EXPECT_EQ(network_preset("dart-berry").name, "dart-berry");
  EXPECT_THROW(network_preset("nope"), std::out_of_range);
}

TEST(Presets, FirstPresetsClamps) {
  EXPECT_EQ(first_presets(3).size(), 3u);
  EXPECT_EQ(first_presets(99).size(), 8u);
}

TEST(Generator, DeterministicForSamePreset) {
  const auto& preset = all_network_presets()[0];
  const Trace a = TraceGenerator::generate(preset, small_options());
  const Trace b = TraceGenerator::generate(preset, small_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.packets()[i].src_ip, b.packets()[i].src_ip);
    EXPECT_EQ(a.packets()[i].length, b.packets()[i].length);
    EXPECT_EQ(a.packets()[i].timestamp_s, b.packets()[i].timestamp_s);
  }
}

TEST(Generator, SeedOffsetProducesDistinctTrace) {
  const auto& preset = all_network_presets()[0];
  auto options = small_options();
  const Trace a = TraceGenerator::generate(preset, options);
  options.seed_offset = 1;
  const Trace b = TraceGenerator::generate(preset, options);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a.packets()[i].src_ip != b.packets()[i].src_ip ||
              a.packets()[i].length != b.packets()[i].length;
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, TimestampsMonotone) {
  const Trace t =
      TraceGenerator::generate(network_preset("dart-dorm"), small_options());
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t.packets()[i].timestamp_s, t.packets()[i - 1].timestamp_s);
  }
}

TEST(Generator, LengthsWithinMtu) {
  for (const auto& preset : all_network_presets()) {
    const Trace t = TraceGenerator::generate(preset, small_options());
    for (const auto& p : t.packets()) {
      EXPECT_GE(p.length, 40u);
      EXPECT_LE(p.length, preset.mtu);
    }
  }
}

TEST(Generator, HttpPacketsCarryUrls) {
  const Trace t = TraceGenerator::generate(network_preset("dart-whittemore"),
                                           small_options());
  std::size_t with_payload = 0;
  for (const auto& p : t.packets()) {
    if (t.has_payload(p)) {
      ++with_payload;
      EXPECT_EQ(t.payload(p.payload_id).rfind("http://", 0), 0u);
    }
  }
  // Web-heavy preset: a meaningful share of packets are requests.
  EXPECT_GT(with_payload, t.size() / 20);
}

TEST(Generator, NoSelfTalk) {
  const Trace t =
      TraceGenerator::generate(all_network_presets()[1], small_options());
  for (const auto& p : t.packets()) EXPECT_NE(p.src_ip, p.dst_ip);
}

TEST(Trace, SaveLoadRoundTrip) {
  const Trace t =
      TraceGenerator::generate(network_preset("dart-berry"), small_options());
  std::stringstream ss;
  t.save(ss);
  const Trace u = Trace::load(ss);
  ASSERT_EQ(u.size(), t.size());
  EXPECT_EQ(u.name(), t.name());
  EXPECT_EQ(u.payload_count(), t.payload_count());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(u.packets()[i].src_ip, t.packets()[i].src_ip);
    EXPECT_EQ(u.packets()[i].dst_port, t.packets()[i].dst_port);
    EXPECT_EQ(u.packets()[i].payload_id, t.packets()[i].payload_id);
  }
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream ss("not a trace");
  EXPECT_THROW(Trace::load(ss), std::runtime_error);
}

// A two-packet trace whose second packet reads `fields` (src_ip dst_ip
// src_port dst_port protocol length payload_id).
std::string two_packet_trace(const std::string& fields) {
  return "ddtr-trace 1 t\npayloads 0\npackets 2\n"
         "0 1 2 3 4 6 60 4294967295\n0.5 " +
         fields + "\n";
}

// The message Trace::load throws for `text`, or "" if it loads.
std::string load_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    Trace::load(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Trace, LoadAcceptsFieldBounds) {
  std::stringstream ss(
      two_packet_trace("4294967295 0 65535 0 255 65535 4294967295"));
  const Trace t = Trace::load(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.packets()[1].src_ip, 4294967295u);
  EXPECT_EQ(t.packets()[1].protocol, 255u);
  EXPECT_EQ(t.packets()[1].length, 65535u);
}

// Protocol is one byte: 273 must not load as UDP (273 mod 256 = 17), nor
// 262 as TCP.
TEST(Trace, LoadRejectsProtocolAbove255) {
  for (const char* protocol : {"256", "262", "273"}) {
    const std::string error = load_error(
        two_packet_trace(std::string("1 2 3 4 ") + protocol + " 60 0"));
    EXPECT_NE(error.find("packet 1"), std::string::npos)
        << protocol << ": " << error;
    EXPECT_NE(error.find("protocol"), std::string::npos) << error;
  }
}

// A negative value in any unsigned field must not wrap (-5 as src_ip
// would load as 4294967291).
TEST(Trace, LoadRejectsNegativeUnsignedFields) {
  const char* names[] = {"src_ip",   "dst_ip", "src_port",  "dst_port",
                         "protocol", "length", "payload_id"};
  for (int field = 0; field < 7; ++field) {
    std::string fields;
    for (int i = 0; i < 7; ++i) {
      fields += (i == field ? "-5" : "6");
      fields += i + 1 < 7 ? " " : "";
    }
    const std::string error = load_error(two_packet_trace(fields));
    EXPECT_NE(error.find("packet 1"), std::string::npos)
        << fields << ": " << error;
    EXPECT_NE(error.find(names[field]), std::string::npos) << error;
  }
}

// Values past a field's width fail the extraction; the error still names
// the packet.
TEST(Trace, LoadNamesThePacketOfAnOverflowingField) {
  for (const char* fields :
       {"4294967296 2 3 4 6 60 0", "1 2 3 4 6 70000 0", "1 2 3"}) {
    const std::string error = load_error(two_packet_trace(fields));
    EXPECT_NE(error.find("packet 1"), std::string::npos)
        << fields << ": " << error;
  }
}

TEST(Trace, PayloadLookupOutOfRangeIsEmpty) {
  Trace t;
  EXPECT_TRUE(t.payload(kNoPayload).empty());
  EXPECT_TRUE(t.payload(42).empty());
}

TEST(Parser, ExtractsSaneParameters) {
  const auto& preset = network_preset("nlanr-campus");
  const Trace t = TraceGenerator::generate(preset, small_options());
  const NetworkParams params = TraceParser::extract(t);
  EXPECT_EQ(params.packet_count, t.size());
  EXPECT_GT(params.duration_s, 0.0);
  EXPECT_GT(params.node_count, 10u);
  EXPECT_LE(params.node_count, preset.node_count + 1);
  EXPECT_GT(params.flow_count, 10u);
  EXPECT_GT(params.throughput_bps, 0.0);
  EXPECT_GT(params.mean_packet_bytes, 40.0);
  EXPECT_LE(params.max_packet_bytes, preset.mtu);
  EXPECT_GE(params.http_fraction, 0.0);
  EXPECT_LE(params.http_fraction, 1.0);
  EXPECT_GE(params.udp_fraction, 0.0);
  EXPECT_LE(params.udp_fraction, 1.0);
}

TEST(Parser, DistinguishesNetworkConfigurations) {
  // The whole point of step 2: different networks present measurably
  // different parameter vectors.
  const NetworkParams campus = TraceParser::extract(
      TraceGenerator::generate(network_preset("nlanr-campus"),
                               small_options()));
  const NetworkParams satellite = TraceParser::extract(
      TraceGenerator::generate(network_preset("nlanr-satellite"),
                               small_options()));
  EXPECT_GT(campus.node_count, satellite.node_count * 2);
  EXPECT_GT(campus.throughput_bps, satellite.throughput_bps);
}

TEST(Parser, EmptyTrace) {
  const NetworkParams params = TraceParser::extract(Trace{"empty"});
  EXPECT_EQ(params.packet_count, 0u);
  EXPECT_EQ(params.node_count, 0u);
  EXPECT_EQ(params.throughput_bps, 0.0);
}

TEST(MakeIp, PacksOctets) {
  EXPECT_EQ(make_ip(10, 0, 0, 1), 0x0a000001u);
  EXPECT_EQ(make_ip(255, 255, 255, 255), 0xffffffffu);
}

TEST(ContentHash, StableAndSensitiveToEveryMutation) {
  const auto& preset = all_network_presets()[0];
  const Trace a = TraceGenerator::generate(preset, small_options());
  const Trace b = TraceGenerator::generate(preset, small_options());
  EXPECT_NE(a.content_hash(), 0u);
  // Identical content — including across copies — hashes identically.
  EXPECT_EQ(a.content_hash(), b.content_hash());
  const Trace copy = a;
  EXPECT_EQ(copy.content_hash(), a.content_hash());

  // Any mutation changes the digest.
  Trace renamed = a;
  renamed.set_name("other");
  EXPECT_NE(renamed.content_hash(), a.content_hash());
  Trace extended = a;
  extended.add_packet(PacketRecord{});
  EXPECT_NE(extended.content_hash(), a.content_hash());
  Trace payloaded = a;
  payloaded.add_payload("GET /index.html");
  EXPECT_NE(payloaded.content_hash(), a.content_hash());
}

TEST(ContentHash, SurvivesTextRoundTrip) {
  const Trace original =
      TraceGenerator::generate(network_preset("dart-berry"), small_options());
  std::stringstream ss;
  original.save(ss);
  const Trace reloaded = Trace::load(ss);
  EXPECT_EQ(reloaded.content_hash(), original.content_hash());
}

TEST(TraceStore, PresetKeyKeepsFullDoublePrecision) {
  // Regression for the preset-key truncation bug: keys were formatted at
  // the default ostream precision (6 significant digits), so two presets
  // differing in the 7th digit of a double field collided on one key and
  // the second request silently replayed the FIRST preset's trace.
  TraceStore store;
  NetworkPreset a = network_preset("nlanr-campus");
  NetworkPreset b = a;
  b.zipf_skew += 1e-7;  // differs in the 7th significant digit
  ASSERT_NE(a.zipf_skew, b.zipf_skew);

  const auto trace_a = store.get_or_generate(a, small_options());
  const auto trace_b = store.get_or_generate(b, small_options());
  EXPECT_EQ(store.size(), 2u);  // two keys, two builds — no collision
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_NE(trace_a.get(), trace_b.get());
  // The skew genuinely changes the generated content, which is exactly
  // why replaying the cached trace would have been wrong.
  EXPECT_NE(trace_a->content_hash(), trace_b->content_hash());

  // Equal presets still share one trace.
  const auto trace_a2 = store.get_or_generate(a, small_options());
  EXPECT_EQ(trace_a2.get(), trace_a.get());
  EXPECT_EQ(store.hits(), 1u);
}

TEST(TraceStore, SameKeyConcurrentRequestsBuildOnce) {
  TraceStore store;
  const NetworkPreset preset = network_preset("dart-library");
  TraceGenerator::Options options;
  options.packet_count = 500;

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Trace>> results(4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = store.get_or_generate(preset, options);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.hits(), results.size() - 1);
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
}

TEST(TraceStore, DistinctKeysBuildConcurrently) {
  // Two builds that each wait (bounded) for the other to START can only
  // both finish if the store runs them in parallel; the old
  // lock-across-build store serialized them, and whichever built first
  // timed out waiting. The builds rendezvous, so distinct traces no
  // longer serialize behind one store-wide lock.
  TraceStore store;
  std::mutex mu;
  std::condition_variable cv;
  bool started_a = false;
  bool started_b = false;
  bool saw_peer_a = false;
  bool saw_peer_b = false;
  const auto wait_for = [&](bool& flag) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5), [&] { return flag; });
  };
  const auto announce = [&](bool& flag) {
    {
      std::lock_guard<std::mutex> lock(mu);
      flag = true;
    }
    cv.notify_all();
  };

  std::thread thread_a([&] {
    store.get_or_build("key-a", [&] {
      announce(started_a);
      saw_peer_a = wait_for(started_b);
      return Trace{"a"};
    });
  });
  std::thread thread_b([&] {
    store.get_or_build("key-b", [&] {
      announce(started_b);
      saw_peer_b = wait_for(started_a);
      return Trace{"b"};
    });
  });
  thread_a.join();
  thread_b.join();
  EXPECT_TRUE(saw_peer_a);
  EXPECT_TRUE(saw_peer_b);
  EXPECT_EQ(store.size(), 2u);
}

TEST(TraceStore, FailedBuildPropagatesAndAllowsRetry) {
  TraceStore store;
  EXPECT_THROW(store.get_or_build(
                   "flaky", []() -> Trace {
                     throw std::runtime_error("build exploded");
                   }),
               std::runtime_error);
  // The failed slot was vacated: a retry builds fresh and succeeds.
  const auto trace = store.get_or_build("flaky", [] { return Trace{"ok"}; });
  EXPECT_EQ(trace->name(), "ok");
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace ddtr::net
