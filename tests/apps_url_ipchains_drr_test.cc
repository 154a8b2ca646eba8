// URL, IPchains and DRR case-study tests: functional invariance across DDT
// combinations, conservation laws, and per-app semantics.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "apps/drr/drr_app.h"
#include "apps/ipchains/ipchains_app.h"
#include "apps/url/url_app.h"
#include "ddt/factory.h"
#include "nettrace/generator.h"
#include "nettrace/presets.h"

namespace ddtr::apps {
namespace {

net::Trace small_trace(const std::string& preset, std::size_t packets) {
  net::TraceGenerator::Options options;
  options.packet_count = packets;
  return net::TraceGenerator::generate(net::network_preset(preset), options);
}

const std::vector<ddt::DdtCombination> kSpotCombos = {
    ddt::DdtCombination({ddt::DdtKind::kArray, ddt::DdtKind::kArray}),
    ddt::DdtCombination({ddt::DdtKind::kSll, ddt::DdtKind::kSll}),
    ddt::DdtCombination(
        {ddt::DdtKind::kDllRoving, ddt::DdtKind::kArrayOfPointers}),
    ddt::DdtCombination(
        {ddt::DdtKind::kSllOfArraysRoving, ddt::DdtKind::kDllOfArrays}),
};

// ---------------------------------------------------------------- URL --

TEST(UrlApp, EveryHttpRequestIsRouted) {
  const net::Trace trace = small_trace("dart-whittemore", 3000);
  std::size_t requests = 0;
  for (const auto& p : trace.packets()) {
    if (trace.has_payload(p)) ++requests;
  }
  ASSERT_GT(requests, 0u);

  url::UrlApp app(url::UrlApp::Config{24, 8, 8101});
  app.run(trace, kSpotCombos[0]);
  EXPECT_EQ(app.dispatched() + app.defaulted(), requests);
  // The pattern vocabulary overlaps the URL vocabulary: most requests
  // match a rule.
  EXPECT_GT(app.dispatched(), requests / 2);
}

TEST(UrlApp, DispatchInvariantAcrossCombos) {
  const net::Trace trace = small_trace("dart-berry", 2000);
  url::UrlApp app(url::UrlApp::Config{24, 8, 8101});
  std::uint64_t reference = 0;
  for (std::size_t i = 0; i < kSpotCombos.size(); ++i) {
    app.run(trace, kSpotCombos[i]);
    if (i == 0) {
      reference = app.dispatched();
    } else {
      EXPECT_EQ(app.dispatched(), reference)
          << kSpotCombos[i].label();
    }
  }
}

TEST(UrlApp, MorePatternsMoreScanWork) {
  const net::Trace trace = small_trace("dart-berry", 2000);
  url::UrlApp few(url::UrlApp::Config{8, 8, 8101});
  url::UrlApp many(url::UrlApp::Config{32, 8, 8101});
  const auto few_run = few.run(trace, kSpotCombos[0]);
  const auto many_run = many.run(trace, kSpotCombos[0]);
  EXPECT_GT(many_run.total.accesses(), few_run.total.accesses());
}

TEST(UrlApp, PatternTableDominatesServerTable) {
  const net::Trace trace = small_trace("dart-library", 2000);
  url::UrlApp app(url::UrlApp::Config{24, 8, 8101});
  const auto result = app.run(trace, kSpotCombos[0]);
  ASSERT_EQ(result.per_structure.size(), 2u);
  EXPECT_GT(result.per_structure[0].second.accesses(),
            result.per_structure[1].second.accesses());
}

// The url kernel as NetBench runs it, per packet and without the memo:
// scan the rules with a substring search up to the first match, bump the
// matched rule, then update its server. The oracle of run()'s weighted
// replay.
struct DirectUrlRun {
  RunResult result;
  std::uint64_t dispatched = 0;
  std::uint64_t defaulted = 0;
};

DirectUrlRun direct_url_run(const url::UrlApp& app, std::size_t server_count,
                            const net::Trace& trace,
                            const ddt::DdtCombination& combo) {
  prof::MemoryProfile pattern_profile("pattern_table");
  prof::MemoryProfile server_profile("server_table");
  prof::MemoryProfile cpu_profile("cpu");
  const auto patterns =
      ddt::make_container<url::UrlPattern>(combo[0], pattern_profile);
  const auto servers =
      ddt::make_container<url::ServerInfo>(combo[1], server_profile);
  for (std::size_t s = 0; s < server_count; ++s) {
    servers->push_back(url::ServerInfo{});
  }
  for (const url::UrlPattern& rule : app.rule_table()) {
    patterns->push_back(rule);
  }
  DirectUrlRun run;
  for (const net::PacketRecord& packet : trace.packets()) {
    cpu_profile.record_cpu_ops(8);
    if (!trace.has_payload(packet)) continue;
    const std::string& payload = trace.payload(packet.payload_id);
    bool matched = false;
    std::size_t match = 0;
    patterns->for_each([&](std::size_t i, const url::UrlPattern& rule) {
      cpu_profile.record_cpu_ops(payload.size());
      if (payload.find(std::string_view(rule.pattern, rule.length)) ==
          std::string::npos) {
        return true;
      }
      matched = true;
      match = i;
      return false;
    });
    std::uint16_t server_index = 0;
    if (matched) {
      url::UrlPattern rule = patterns->get(match);
      ++rule.hits;
      patterns->set(match, rule);
      server_index = rule.server;
      ++run.dispatched;
    } else {
      ++run.defaulted;
    }
    url::ServerInfo server = servers->get(server_index);
    ++server.active_requests;
    servers->set(server_index, server);
    cpu_profile.record_cpu_ops(20);
  }
  run.result.per_structure.emplace_back("pattern_table",
                                        pattern_profile.counters());
  run.result.per_structure.emplace_back("server_table",
                                        server_profile.counters());
  run.result.total = pattern_profile.counters();
  run.result.total += server_profile.counters();
  run.result.total += cpu_profile.counters();
  return run;
}

TEST(UrlApp, WeightedReplayMatchesDirectPerPacketRun) {
  // run() scans each distinct payload once and weights it by its packet
  // count; it must charge exactly what the per-packet kernel charges, on
  // every kind of either slot (the server table's roving kinds see the
  // requests in trace order).
  for (const std::size_t pattern_count : {8u, 32u}) {
    for (const std::uint64_t seed_offset : {0u, 3u}) {
      net::TraceGenerator::Options options;
      options.packet_count = 2000;
      options.seed_offset = seed_offset;
      const net::Trace trace = net::TraceGenerator::generate(
          net::network_preset("dart-berry"), options);
      const url::UrlApp::Config config{pattern_count, 8, 8101};
      url::UrlApp app(config);
      for (std::size_t i = 0; i < ddt::kAllDdtKinds.size(); ++i) {
        const ddt::DdtCombination combo(
            {ddt::kAllDdtKinds[i],
             ddt::kAllDdtKinds[(i + 5) % ddt::kAllDdtKinds.size()]});
        SCOPED_TRACE("patterns " + std::to_string(pattern_count) +
                     " offset " + std::to_string(seed_offset) + " " +
                     combo.label());
        const RunResult weighted = app.run(trace, combo);
        const DirectUrlRun direct =
            direct_url_run(app, config.server_count, trace, combo);
        ASSERT_EQ(weighted.per_structure.size(), 2u);
        for (std::size_t s = 0; s < 2; ++s) {
          EXPECT_EQ(weighted.per_structure[s].first,
                    direct.result.per_structure[s].first);
          EXPECT_EQ(weighted.per_structure[s].second,
                    direct.result.per_structure[s].second);
        }
        EXPECT_EQ(weighted.total, direct.result.total);
        EXPECT_EQ(app.dispatched(), direct.dispatched);
        EXPECT_EQ(app.defaulted(), direct.defaulted);
      }
    }
  }
}

// ----------------------------------------------------------- IPchains --

TEST(IpchainsApp, EveryPacketGetsAVerdict) {
  const net::Trace trace = small_trace("nlanr-campus", 2500);
  ipchains::IpchainsApp app(ipchains::IpchainsApp::Config{64, 256, 9265});
  app.run(trace, kSpotCombos[0]);
  EXPECT_EQ(app.accepted() + app.denied(), trace.size());
  EXPECT_GT(app.accepted(), 0u);  // catch-all accept exists
}

TEST(IpchainsApp, VerdictInvariantAcrossCombos) {
  const net::Trace trace = small_trace("nlanr-satellite", 1500);
  ipchains::IpchainsApp app(ipchains::IpchainsApp::Config{64, 256, 9265});
  std::uint64_t reference = 0;
  for (std::size_t i = 0; i < kSpotCombos.size(); ++i) {
    app.run(trace, kSpotCombos[i]);
    if (i == 0) {
      reference = app.denied();
    } else {
      EXPECT_EQ(app.denied(), reference) << kSpotCombos[i].label();
    }
  }
}

TEST(IpchainsApp, MoreRulesMoreWork) {
  const net::Trace trace = small_trace("nlanr-campus", 1500);
  // Same seed: the longer chain is a superset prefix of the shorter one,
  // so rule-chain traffic can only grow. (Verdicts may differ — packets
  // that previously fell through to the catch-all can hit a specific rule
  // — so only the chain structure is compared.)
  ipchains::IpchainsApp few(ipchains::IpchainsApp::Config{32, 256, 9233});
  ipchains::IpchainsApp many(ipchains::IpchainsApp::Config{128, 256, 9233});
  const auto few_run = few.run(trace, kSpotCombos[0]);
  const auto many_run = many.run(trace, kSpotCombos[0]);
  EXPECT_GT(many_run.per_structure[0].second.accesses(),
            few_run.per_structure[0].second.accesses());
}

TEST(IpchainsApp, ConnTableStaysBounded) {
  const net::Trace trace = small_trace("nlanr-backbone", 3000);
  // Tiny cache forces steady eviction; footprint must stay bounded.
  ipchains::IpchainsApp app(ipchains::IpchainsApp::Config{16, 32, 9265});
  const auto result = app.run(trace, kSpotCombos[0]);
  const auto& conn = result.per_structure[1].second;
  // 32 entries * (sizeof(ConnEntry)+overhead) is well under 4 KiB even
  // with array-doubling slack.
  EXPECT_LT(conn.peak_bytes, 4096u);
  EXPECT_GT(conn.deallocations, 0u);  // evictions actually happened
}

// ---------------------------------------------------------------- DRR --

TEST(DrrApp, ConservesPackets) {
  const net::Trace trace = small_trace("dart-dorm", 3000);
  drr::DrrApp app(drr::DrrApp::Config{1.0, 1.15, 64, 10301});
  app.run(trace, kSpotCombos[0]);
  EXPECT_EQ(app.sent_packets() + app.dropped_packets(), trace.size());
  EXPECT_GT(app.sent_packets(), trace.size() * 8 / 10);
}

TEST(DrrApp, ConservationInvariantAcrossCombos) {
  const net::Trace trace = small_trace("dart-library", 1500);
  drr::DrrApp app(drr::DrrApp::Config{1.0, 1.15, 64, 10301});
  std::uint64_t sent_ref = 0;
  for (std::size_t i = 0; i < kSpotCombos.size(); ++i) {
    app.run(trace, kSpotCombos[i]);
    if (i == 0) {
      sent_ref = app.sent_packets();
    } else {
      EXPECT_EQ(app.sent_packets(), sent_ref) << kSpotCombos[i].label();
    }
  }
}

TEST(DrrApp, FairnessIndexInRange) {
  const net::Trace trace = small_trace("dart-berry", 2500);
  drr::DrrApp app(drr::DrrApp::Config{1.0, 1.15, 64, 10301});
  app.run(trace, kSpotCombos[0]);
  EXPECT_GT(app.fairness_index(), 0.0);
  EXPECT_LE(app.fairness_index(), 1.0 + 1e-9);
}

TEST(DrrApp, DrainsAllQueuesAtEnd) {
  const net::Trace trace = small_trace("nlanr-satellite", 1200);
  drr::DrrApp app(drr::DrrApp::Config{1.0, 1.15, 64, 10301});
  const auto result = app.run(trace, kSpotCombos[1]);
  // Every packet left the queues (functional drain)...
  EXPECT_EQ(app.sent_packets() + app.dropped_packets(), trace.size());
  // ...so what remains charged to the queue DDT is only the arena pool's
  // retained chunk reservation, bounded by the high-water footprint.
  const auto& queue = result.per_structure[1].second;
  EXPECT_GT(queue.live_bytes, 0u);  // pools keep their chunks until clear()
  EXPECT_LE(queue.live_bytes, queue.peak_bytes);
}

TEST(DrrApp, TightQueueCapDropsMore) {
  const net::Trace trace = small_trace("dart-dorm", 2500);
  drr::DrrApp roomy(drr::DrrApp::Config{1.0, 1.02, 256, 10301});
  drr::DrrApp tight(drr::DrrApp::Config{1.0, 1.02, 2, 10301});
  roomy.run(trace, kSpotCombos[0]);
  const std::uint64_t roomy_drops = roomy.dropped_packets();
  tight.run(trace, kSpotCombos[0]);
  EXPECT_GE(tight.dropped_packets(), roomy_drops);
}

TEST(DrrApp, QueueDdtSeesHeadRemovals) {
  const net::Trace trace = small_trace("dart-berry", 1500);
  drr::DrrApp app(drr::DrrApp::Config{1.0, 1.15, 64, 10301});
  const auto result = app.run(trace, kSpotCombos[0]);
  const auto& queue = result.per_structure[1].second;
  EXPECT_GT(queue.writes, 0u);
  EXPECT_GT(queue.reads, 0u);
}

}  // namespace
}  // namespace ddtr::apps
