// Route case-study tests: radix-tree correctness against brute-force
// longest-prefix match, and the key instrumentation contract — functional
// behaviour must be identical across all DDT combinations.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "apps/route/radix_tree.h"
#include "apps/route/route_app.h"
#include "ddt/factory.h"
#include "nettrace/generator.h"
#include "support/rng.h"

namespace ddtr::apps::route {
namespace {

struct Prefix {
  std::uint32_t prefix;
  std::uint8_t len;
  std::uint32_t next_hop;
};

std::optional<std::uint32_t> brute_force_lpm(
    const std::vector<Prefix>& table, std::uint32_t dst) {
  std::optional<std::uint32_t> best;
  int best_len = -1;
  for (const Prefix& p : table) {
    const std::uint32_t mask =
        p.len == 0 ? 0 : 0xffffffffu << (32 - p.len);
    if ((dst & mask) == (p.prefix & mask) && p.len > best_len) {
      best_len = p.len;
      best = p.next_hop;
    }
  }
  return best;
}

class RadixTreeFixture {
 public:
  explicit RadixTreeFixture(ddt::DdtKind kind = ddt::DdtKind::kArray)
      : nodes_(ddt::make_container<RadixNode>(kind, profile_)),
        entries_(ddt::make_container<RouteEntry>(kind, profile_)),
        tree_(*nodes_, *entries_, profile_) {}

  RadixTree<>& tree() { return tree_; }

 private:
  prof::MemoryProfile profile_;
  std::unique_ptr<ddt::Container<RadixNode>> nodes_;
  std::unique_ptr<ddt::Container<RouteEntry>> entries_;
  RadixTree<> tree_;
};

TEST(RadixTree, EmptyTableMatchesNothing) {
  RadixTreeFixture f;
  EXPECT_FALSE(f.tree().lookup(net::make_ip(1, 2, 3, 4)).has_value());
}

TEST(RadixTree, DefaultRouteMatchesEverything) {
  RadixTreeFixture f;
  f.tree().insert(0, 0, 42, 0);
  const auto hit = f.tree().lookup(net::make_ip(200, 1, 1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->next_hop, 42u);
}

TEST(RadixTree, LongestPrefixWins) {
  RadixTreeFixture f;
  f.tree().insert(net::make_ip(10, 0, 0, 0), 8, 1, 0);
  f.tree().insert(net::make_ip(10, 1, 0, 0), 16, 2, 0);
  f.tree().insert(net::make_ip(10, 1, 2, 0), 24, 3, 0);
  EXPECT_EQ(f.tree().lookup(net::make_ip(10, 1, 2, 9))->next_hop, 3u);
  EXPECT_EQ(f.tree().lookup(net::make_ip(10, 1, 9, 9))->next_hop, 2u);
  EXPECT_EQ(f.tree().lookup(net::make_ip(10, 9, 9, 9))->next_hop, 1u);
  EXPECT_FALSE(f.tree().lookup(net::make_ip(11, 0, 0, 1)).has_value());
}

TEST(RadixTree, ReinsertReplacesRoute) {
  RadixTreeFixture f;
  f.tree().insert(net::make_ip(10, 0, 0, 0), 8, 1, 0);
  f.tree().insert(net::make_ip(10, 0, 0, 0), 8, 7, 0);
  EXPECT_EQ(f.tree().lookup(net::make_ip(10, 5, 5, 5))->next_hop, 7u);
  EXPECT_EQ(f.tree().route_count(), 1u);
}

TEST(RadixTree, HostRouteFullLength) {
  RadixTreeFixture f;
  const std::uint32_t host = net::make_ip(192, 168, 1, 77);
  f.tree().insert(host, 32, 9, 0);
  EXPECT_EQ(f.tree().lookup(host)->next_hop, 9u);
  EXPECT_FALSE(f.tree().lookup(host ^ 1).has_value());
}

TEST(RadixTree, UseCountIncrements) {
  RadixTreeFixture f;
  f.tree().insert(net::make_ip(10, 0, 0, 0), 8, 1, 0);
  f.tree().lookup(net::make_ip(10, 0, 0, 1));
  f.tree().lookup(net::make_ip(10, 0, 0, 2));
  EXPECT_EQ(f.tree().lookup(net::make_ip(10, 0, 0, 3))->use_count, 3u);
}

TEST(RadixTree, MatchesBruteForceOnRandomTables) {
  support::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    // Octet-aligned lengths {0, 8, .., 32} first, then every length 0..32.
    const bool any_length = trial >= 10;
    RadixTreeFixture f;
    std::vector<Prefix> table;
    for (int i = 0; i < 60; ++i) {
      Prefix p;
      p.prefix = static_cast<std::uint32_t>(rng.next_u64());
      p.len = static_cast<std::uint8_t>(any_length ? rng.uniform(0, 32)
                                                   : rng.uniform(0, 4) * 8);
      const std::uint32_t mask =
          p.len == 0 ? 0 : 0xffffffffu << (32 - p.len);
      p.prefix &= mask;
      p.next_hop = static_cast<std::uint32_t>(i + 1);
      // Skip duplicate (prefix,len) pairs: the tree replaces, brute force
      // would keep both.
      bool dup = false;
      for (const Prefix& q : table) {
        dup |= q.prefix == p.prefix && q.len == p.len;
      }
      if (dup) continue;
      table.push_back(p);
      f.tree().insert(p.prefix, p.len, p.next_hop, 0);
    }
    for (int probe = 0; probe < 300; ++probe) {
      // Half the probes are perturbed table prefixes (likely matches).
      std::uint32_t dst;
      if (probe % 2 == 0 && !table.empty()) {
        const Prefix& p = table[rng.uniform(0, table.size() - 1)];
        dst = p.prefix | static_cast<std::uint32_t>(rng.uniform(0, 0xffff));
      } else {
        dst = static_cast<std::uint32_t>(rng.next_u64());
      }
      const auto expected = brute_force_lpm(table, dst);
      const auto got = f.tree().lookup(dst);
      ASSERT_EQ(got.has_value(), expected.has_value())
          << "trial " << trial << " dst " << dst;
      if (expected) {
        EXPECT_EQ(got->next_hop, *expected)
            << "trial " << trial << " dst " << dst;
      }
    }
  }
}

TEST(RadixTree, ResultIndependentOfDdtKind) {
  // Same inserts and lookups on every DDT kind must give identical
  // answers — only the profile differs.
  std::vector<std::uint32_t> reference;
  for (ddt::DdtKind kind : ddt::kAllDdtKinds) {
    RadixTreeFixture f(kind);
    support::Rng rng(99);
    for (int i = 0; i < 40; ++i) {
      const auto addr = static_cast<std::uint32_t>(rng.next_u64());
      const auto len = static_cast<std::uint8_t>(rng.uniform(1, 3) * 8);
      f.tree().insert(addr & (0xffffffffu << (32 - len)), len,
                      static_cast<std::uint32_t>(i), 0);
    }
    std::vector<std::uint32_t> answers;
    for (int i = 0; i < 100; ++i) {
      const auto dst = static_cast<std::uint32_t>(rng.next_u64());
      const auto hit = f.tree().lookup(dst);
      answers.push_back(hit ? hit->next_hop + 1 : 0);
    }
    if (reference.empty()) {
      reference = answers;
    } else {
      EXPECT_EQ(answers, reference) << "kind " << ddt::to_string(kind);
    }
  }
}

TEST(RouteApp, ForwardsOrDropsEveryPacket) {
  net::TraceGenerator::Options options;
  options.packet_count = 1500;
  const net::Trace trace = net::TraceGenerator::generate(
      net::network_preset("nlanr-campus"), options);
  RouteApp app(RouteApp::Config{128, 7});
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kArray});
  app.run(trace, combo);
  EXPECT_EQ(app.forwarded() + app.dropped(), trace.size());
  // A table synthesized from trace destinations plus default route should
  // forward everything.
  EXPECT_GT(app.forwarded(), trace.size() * 9 / 10);
}

TEST(RouteApp, FunctionalResultInvariantAcrossCombos) {
  net::TraceGenerator::Options options;
  options.packet_count = 800;
  const net::Trace trace = net::TraceGenerator::generate(
      net::network_preset("dart-berry"), options);
  RouteApp app(RouteApp::Config{128, 7});

  std::uint64_t ref_forwarded = 0;
  bool first = true;
  for (ddt::DdtKind a :
       {ddt::DdtKind::kArray, ddt::DdtKind::kSll, ddt::DdtKind::kDllRoving,
        ddt::DdtKind::kSllOfArrays}) {
    for (ddt::DdtKind b : {ddt::DdtKind::kArrayOfPointers,
                           ddt::DdtKind::kDllOfArraysRoving}) {
      app.run(trace, ddt::DdtCombination({a, b}));
      if (first) {
        ref_forwarded = app.forwarded();
        first = false;
      } else {
        EXPECT_EQ(app.forwarded(), ref_forwarded)
            << ddt::to_string(a) << "+" << ddt::to_string(b);
      }
    }
  }
}

TEST(RouteApp, ProfilesBothDominantStructures) {
  net::TraceGenerator::Options options;
  options.packet_count = 500;
  const net::Trace trace = net::TraceGenerator::generate(
      net::network_preset("dart-berry"), options);
  RouteApp app(RouteApp::Config{128, 7});
  const auto result = app.run(
      trace, ddt::DdtCombination({ddt::DdtKind::kArray, ddt::DdtKind::kSll}));
  ASSERT_EQ(result.per_structure.size(), 2u);
  EXPECT_EQ(result.per_structure[0].first, "radix_node");
  EXPECT_EQ(result.per_structure[1].first, "rtentry");
  EXPECT_GT(result.per_structure[0].second.accesses(), 0u);
  EXPECT_GT(result.per_structure[1].second.accesses(), 0u);
  // Node pool is the hot structure in a trie walk.
  EXPECT_GT(result.per_structure[0].second.accesses(),
            result.per_structure[1].second.accesses());
  EXPECT_GT(result.total.cpu_ops, 0u);
}

TEST(RouteApp, LargerTableCostsMoreFootprint) {
  net::TraceGenerator::Options options;
  options.packet_count = 400;
  const net::Trace trace = net::TraceGenerator::generate(
      net::network_preset("nlanr-backbone"), options);
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kArray});
  RouteApp small(RouteApp::Config{128, 7});
  RouteApp big(RouteApp::Config{256, 7});
  const auto small_run = small.run(trace, combo);
  const auto big_run = big.run(trace, combo);
  EXPECT_GT(big_run.total.peak_bytes, small_run.total.peak_bytes);
}

// The direct form of RouteApp::run on the bit trie: RadixTree<> over
// make_container with the plan's routes, then lookup() per packet.
struct DirectRun {
  RunResult result;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
};

DirectRun direct_run(const std::vector<RouteApp::Route>& routes,
                     const net::Trace& trace,
                     const ddt::DdtCombination& combo) {
  prof::MemoryProfile node_profile("radix_node");
  prof::MemoryProfile entry_profile("rtentry");
  prof::MemoryProfile cpu_profile("cpu");
  const auto entries = ddt::make_container<RouteEntry>(combo[1], entry_profile);
  const auto nodes = ddt::make_container<RadixNode>(combo[0], node_profile);
  RadixTree<> tree(*nodes, *entries, cpu_profile);
  for (const RouteApp::Route& r : routes) {
    tree.insert(r.prefix, r.prefix_len, r.next_hop, r.interface);
  }
  DirectRun run;
  for (const net::PacketRecord& p : trace.packets()) {
    cpu_profile.record_cpu_ops(12);
    if (tree.lookup(p.dst_ip).has_value()) {
      ++run.forwarded;
    } else {
      ++run.dropped;
    }
  }
  run.result.per_structure.emplace_back("radix_node", node_profile.counters());
  run.result.per_structure.emplace_back("rtentry", entry_profile.counters());
  run.result.total = node_profile.counters();
  run.result.total += entry_profile.counters();
  run.result.total += cpu_profile.counters();
  return run;
}

TEST(RouteApp, DescentPlanMatchesDirectLookup) {
  // The planned replay (one dispatch per run, recorded descents) must
  // charge exactly what walking the trie per packet charges, on every
  // slot-0 kind: a dropped node read or CPU op moves a counter here.
  for (const std::size_t table : {128u, 256u}) {
    for (const std::uint64_t seed_offset : {0u, 3u}) {
      net::TraceGenerator::Options options;
      options.packet_count = 700;
      options.seed_offset = seed_offset;
      const net::Trace trace = net::TraceGenerator::generate(
          net::network_preset("nlanr-campus"), options);
      RouteApp app(RouteApp::Config{table, 7});
      const auto plan = app.descent_plan(trace);
      for (std::size_t i = 0; i < ddt::kAllDdtKinds.size(); ++i) {
        const ddt::DdtCombination combo(
            {ddt::kAllDdtKinds[i],
             ddt::kAllDdtKinds[(i + 5) % ddt::kAllDdtKinds.size()]});
        SCOPED_TRACE("table " + std::to_string(table) + " offset " +
                     std::to_string(seed_offset) + " " + combo.label());
        const RunResult planned = app.run(trace, combo);
        const DirectRun direct = direct_run(plan->routes, trace, combo);
        ASSERT_EQ(planned.per_structure.size(), 2u);
        for (std::size_t s = 0; s < 2; ++s) {
          EXPECT_EQ(planned.per_structure[s].first,
                    direct.result.per_structure[s].first);
          EXPECT_EQ(planned.per_structure[s].second,
                    direct.result.per_structure[s].second);
        }
        EXPECT_EQ(planned.total, direct.result.total);
        EXPECT_EQ(app.forwarded(), direct.forwarded);
        EXPECT_EQ(app.dropped(), direct.dropped);
      }
    }
  }
}

}  // namespace
}  // namespace ddtr::apps::route
