// Trace substrate tests: generator determinism and realism, text
// round-trip, parameter extraction (the step-2 front-end), content-hash
// identity, and the TraceStore's keying and concurrency contracts.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corrupt_bytes.h"
#include "nettrace/generator.h"
#include "nettrace/parser.h"
#include "nettrace/presets.h"
#include "nettrace/trace.h"
#include "nettrace/trace_store.h"
#include "support/thread_pool.h"

namespace ddtr::net {
namespace {

// One key through the batch form; a missing key builds on this thread.
std::shared_ptr<const Trace> get_one(TraceStore& store, const std::string& key,
                                     const std::function<Trace()>& build) {
  return store.get_or_build({key}, [&](std::size_t) { return build(); })
      .front();
}

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

// Seeded corruption of a saved trace (byte flips, truncations, an
// inserted digit or '-'): every input either loads or throws
// std::runtime_error, never another exception, a crash or a hang.
TEST(Trace, CorruptionSweepLoadsOrThrowsRuntimeError) {
  TraceGenerator::Options options;
  options.packet_count = 40;
  const Trace trace =
      TraceGenerator::generate(network_preset("dart-whittemore"), options);
  ASSERT_GT(trace.payload_count(), 0u);
  std::ostringstream os;
  trace.save(os);
  const std::string intact = os.str();

  support::Rng rng(0x77ace5eedull);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::uint64_t kind = rng.uniform(0, test_support::kMutationKinds - 1);
    std::istringstream is(test_support::corrupt_bytes(intact, kind, rng));
    try {
      Trace::load(is);
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << "iteration " << iter << ", mutation " << kind
                    << ": load threw something other than runtime_error";
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
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

// Rebuilds `t` with `edit` applied to its packets and payload table.
template <typename Edit>
Trace rebuilt(const Trace& t, Edit edit) {
  std::vector<PacketRecord> packets = t.packets();
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < t.payload_count(); ++i) {
    payloads.push_back(t.payload(static_cast<std::uint32_t>(i)));
  }
  edit(packets, payloads);
  Trace out(t.name());
  for (std::string& payload : payloads) out.add_payload(std::move(payload));
  for (const PacketRecord& p : packets) out.add_packet(p);
  return out;
}

TEST(ContentHash, EveryPacketFieldAndPayloadByteCounts) {
  const Trace base =
      TraceGenerator::generate(network_preset("dart-berry"), small_options());
  ASSERT_GT(base.payload_count(), 0u);
  const std::uint64_t digest = base.content_hash();
  EXPECT_EQ(rebuilt(base, [](auto&, auto&) {}).content_hash(), digest);

  using Field = void (*)(PacketRecord&);
  const std::vector<std::pair<const char*, Field>> fields = {
      {"timestamp", [](PacketRecord& p) { p.timestamp_s += 1e-9; }},
      {"src_ip", [](PacketRecord& p) { p.src_ip ^= 1u; }},
      {"src_ip high bit", [](PacketRecord& p) { p.src_ip ^= 1u << 31; }},
      {"dst_ip", [](PacketRecord& p) { p.dst_ip ^= 1u; }},
      {"dst_ip high bit", [](PacketRecord& p) { p.dst_ip ^= 1u << 31; }},
      {"src_port", [](PacketRecord& p) { p.src_port ^= 1u; }},
      {"dst_port", [](PacketRecord& p) { p.dst_port ^= 0x8000u; }},
      {"protocol", [](PacketRecord& p) { p.protocol ^= 1u; }},
      {"length", [](PacketRecord& p) { p.length ^= 1u; }},
      {"payload_id", [](PacketRecord& p) { p.payload_id ^= 1u; }},
  };
  for (const std::size_t at : {std::size_t{0}, base.size() / 2,
                               base.size() - 1}) {
    for (const auto& [name, mutate] : fields) {
      const Trace edited = rebuilt(base, [&](auto& packets, auto&) {
        mutate(packets[at]);
      });
      EXPECT_NE(edited.content_hash(), digest)
          << name << " of packet " << at;
    }
  }
  // Two packets trading places is a different trace too.
  EXPECT_NE(rebuilt(base, [](auto& packets, auto&) {
              std::swap(packets[0], packets[1]);
            }).content_hash(),
            digest);
  const Trace byte_edited = rebuilt(base, [](auto&, auto& payloads) {
    payloads.back().back() ^= 1;
  });
  EXPECT_NE(byte_edited.content_hash(), digest);
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

  const auto traces =
      store.get_or_generate({{a, small_options()}, {b, small_options()}});
  const auto& trace_a = traces[0];
  const auto& trace_b = traces[1];
  EXPECT_EQ(store.size(), 2u);  // two keys, two builds — no collision
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_NE(trace_a.get(), trace_b.get());
  // The skew genuinely changes the generated content, which is exactly
  // why replaying the cached trace would have been wrong.
  EXPECT_NE(trace_a->content_hash(), trace_b->content_hash());

  // Equal presets still share one trace.
  const auto trace_a2 = store.get_or_generate({{a, small_options()}})[0];
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
      results[i] = store.get_or_generate({{preset, options}})[0];
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
    get_one(store, "key-a", [&] {
      announce(started_a);
      saw_peer_a = wait_for(started_b);
      return Trace{"a"};
    });
  });
  std::thread thread_b([&] {
    get_one(store, "key-b", [&] {
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

TEST(TraceStore, BatchBuildsOnlyItsMissingKeysOnBoundedLanes) {
  TraceStore store;
  get_one(store, "warm", [] { return Trace{"warm"}; });

  std::mutex mu;
  std::set<std::thread::id> lanes;
  std::vector<std::string> built;
  const auto build = [&](const std::vector<std::string>& keys) {
    return [&](std::size_t i) {
      std::lock_guard<std::mutex> lock(mu);
      lanes.insert(std::this_thread::get_id());
      built.push_back(keys[i]);
      return Trace{keys[i]};
    };
  };

  // A repeated key inside one batch is built once and shared.
  const std::vector<std::string> keys = {"a", "b", "warm", "c", "a",
                                         "d", "e", "f"};
  const auto traces = store.get_or_build(keys, build(keys));
  ASSERT_EQ(traces.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(traces[i]->name(), keys[i]);
  }
  EXPECT_EQ(traces[0].get(), traces[4].get());
  EXPECT_EQ(built.size(), 6u);  // a b c d e f
  EXPECT_EQ(store.hits(), 2u);  // "warm" and the second "a"
  EXPECT_LE(lanes.size(), support::ThreadPool::resolve_jobs(0));

  // Fully stored: no build at all. One key missing: built on this thread.
  built.clear();
  lanes.clear();
  const std::vector<std::string> warm = {"a", "b", "c"};
  store.get_or_build(warm, build(warm));
  EXPECT_TRUE(built.empty());
  const std::vector<std::string> one_cold = {"a", "g", "b"};
  store.get_or_build(one_cold, build(one_cold));
  EXPECT_EQ(built, std::vector<std::string>{"g"});
  EXPECT_EQ(lanes, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(TraceStore, FailedBuildInABatchKeepsTheOthers) {
  TraceStore store;
  const std::vector<std::string> keys = {"ok-1", "bad", "ok-2"};
  EXPECT_THROW(store.get_or_build(keys,
                                  [&](std::size_t i) -> Trace {
                                    if (keys[i] == "bad") {
                                      throw std::runtime_error("exploded");
                                    }
                                    return Trace{keys[i]};
                                  }),
               std::runtime_error);
  // The two good builds are stored; the failed slot was vacated.
  EXPECT_EQ(store.size(), 2u);
  bool rebuilt = false;
  const auto again = store.get_or_build(keys, [&](std::size_t i) {
    rebuilt = rebuilt || keys[i] != "bad";
    return Trace{keys[i]};
  });
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(again[1]->name(), "bad");
}

TEST(TraceStore, FailedBuildPropagatesAndAllowsRetry) {
  TraceStore store;
  EXPECT_THROW(get_one(store, "flaky",
                       []() -> Trace {
                         throw std::runtime_error("build exploded");
                       }),
               std::runtime_error);
  // The failed slot was vacated: a retry builds fresh and succeeds.
  const auto trace = get_one(store, "flaky", [] { return Trace{"ok"}; });
  EXPECT_EQ(trace->name(), "ok");
  EXPECT_EQ(store.size(), 1u);
}

TEST(TraceStore, IdleTracesAreBoundedAndHeldTracesStay) {
  TraceStore store;
  // The first trace stays referenced by the test; every later one is
  // dropped at once, so it is idle from its request on.
  const auto held = get_one(store, "key-0", [] { return Trace{"0"}; });
  for (int i = 1; i < 40; ++i) {
    const std::string key = "key-" + std::to_string(i);
    get_one(store, key, [&] { return Trace{key}; });
    EXPECT_LE(store.size(), TraceStore::kRetain) << "after " << key;
  }
  EXPECT_EQ(store.size(), TraceStore::kRetain);
  // The held trace is the oldest request, yet it was never evicted: the
  // store hands back the same instance without rebuilding.
  const std::uint64_t hits = store.hits();
  bool rebuilt = false;
  const auto again = get_one(store, "key-0", [&] {
    rebuilt = true;
    return Trace{"0"};
  });
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(again.get(), held.get());
  EXPECT_EQ(store.hits(), hits + 1);
  // The newest idle key is still warm; the oldest idle one was evicted
  // and builds afresh.
  get_one(store, "key-39", [&] {
    rebuilt = true;
    return Trace{"39"};
  });
  EXPECT_FALSE(rebuilt);
  get_one(store, "key-1", [&] {
    rebuilt = true;
    return Trace{"1"};
  });
  EXPECT_TRUE(rebuilt);
}

}  // namespace
}  // namespace ddtr::net
