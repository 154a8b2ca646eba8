#include "apps/route/route_app.h"

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "apps/route/patricia_tree.h"
#include "apps/route/radix_tree.h"
#include "ddt/factory.h"
#include "support/rng.h"

namespace ddtr::apps::route {

namespace {

// Synthesizes a routing table's prefixes to cover the trace's destination
// space (truncations of observed destinations at classic prefix lengths),
// plus a default route, so that lookups exercise deep descents and real
// matches — the access pattern the NetBench route kernel shows on a live
// FIB.
std::vector<std::pair<std::uint32_t, std::uint8_t>> synthesize_prefixes(
    const net::Trace& trace, std::size_t table_size, std::uint64_t seed) {
  static constexpr std::uint8_t kLengths[] = {8, 12, 16, 20, 24};
  std::vector<std::uint32_t> destinations;
  {
    std::set<std::uint32_t> seen;
    for (const net::PacketRecord& p : trace.packets()) {
      if (seen.insert(p.dst_ip).second) destinations.push_back(p.dst_ip);
    }
  }

  support::Rng rng(seed);
  std::set<std::pair<std::uint32_t, std::uint8_t>> unique;
  std::vector<std::pair<std::uint32_t, std::uint8_t>> prefixes;
  prefixes.emplace_back(0, 0);  // default route
  std::size_t attempts = 0;
  const std::size_t max_attempts = table_size * 64;
  while (prefixes.size() < table_size && attempts++ < max_attempts) {
    std::uint32_t base;
    if (!destinations.empty() && rng.chance(0.8)) {
      base = destinations[rng.uniform(0, destinations.size() - 1)];
    } else {
      base = static_cast<std::uint32_t>(rng.next_u64());
    }
    const std::uint8_t len = kLengths[rng.uniform(0, std::size(kLengths) - 1)];
    const std::uint32_t mask =
        len == 0 ? 0 : 0xffffffffu << (32 - len);
    const auto candidate = std::make_pair(base & mask, len);
    if (unique.insert(candidate).second) prefixes.push_back(candidate);
  }
  return prefixes;
}

}  // namespace

std::vector<RouteApp::Route> RouteApp::synthesize_table(
    const net::Trace& trace) const {
  std::vector<Route> table;
  support::Rng rng(config_.seed);
  for (const auto& [prefix, len] :
       synthesize_prefixes(trace, config_.table_size, config_.seed)) {
    // The interface is drawn before the next hop: the order in which the
    // table has always drawn them (GCC evaluated the two draws, passed as
    // insert() arguments, right to left).
    const auto interface = static_cast<std::uint16_t>(rng.uniform(0, 15));
    const auto next_hop = static_cast<std::uint32_t>(rng.next_u64());
    table.push_back({prefix, len, next_hop, interface});
  }
  return table;
}

RunResult RouteApp::run(const net::Trace& trace,
                        const ddt::DdtCombination& combo) {
  prof::MemoryProfile node_profile("radix_node");
  prof::MemoryProfile entry_profile("rtentry");
  prof::MemoryProfile cpu_profile("cpu");

  auto entries = ddt::make_container<RouteEntry>(combo[1], entry_profile);

  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  const std::shared_ptr<const std::vector<Route>> routes = table_.get(
      trace, [this](const net::Trace& t) { return synthesize_table(t); });
  const auto replay = [&](auto& table) {
    for (const Route& r : *routes) {
      table.insert(r.prefix, r.prefix_len, r.next_hop, r.interface);
    }
    for (const net::PacketRecord& p : trace.packets()) {
      cpu_profile.record_cpu_ops(12);  // header parse + checksum update
      if (table.lookup(p.dst_ip).has_value()) {
        ++forwarded;
      } else {
        ++dropped;
      }
    }
  };

  std::unique_ptr<ddt::Container<RadixNode>> bit_nodes;
  std::unique_ptr<ddt::Container<PatriciaNode>> pat_nodes;
  if (config_.compressed_tree) {
    pat_nodes = ddt::make_container<PatriciaNode>(combo[0], node_profile);
    PatriciaTree table(*pat_nodes, *entries, cpu_profile);
    replay(table);
  } else {
    bit_nodes = ddt::make_container<RadixNode>(combo[0], node_profile);
    RadixTree table(*bit_nodes, *entries, cpu_profile);
    replay(table);
  }

  forwarded_.store(forwarded, std::memory_order_relaxed);
  dropped_.store(dropped, std::memory_order_relaxed);

  RunResult result;
  result.per_structure.emplace_back("radix_node", node_profile.counters());
  result.per_structure.emplace_back("rtentry", entry_profile.counters());
  result.total = node_profile.counters();
  result.total += entry_profile.counters();
  result.total += cpu_profile.counters();
  return result;
}

}  // namespace ddtr::apps::route
