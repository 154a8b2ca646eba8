#include "apps/route/route_app.h"

#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/route/radix_tree.h"
#include "ddt/array.h"
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

// Host-side node store the descent plan is recorded on: a plain vector
// with the node-container members RadixTree uses, charging nothing.
// While a log is set, get() appends every index it reads to it.
class RecordingNodes {
 public:
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  void push_back(const RadixNode& node) { nodes_.push_back(node); }
  RadixNode get(std::size_t index) const {
    if (log_ != nullptr) log_->push_back(static_cast<std::uint32_t>(index));
    return nodes_[index];
  }
  void set(std::size_t index, const RadixNode& node) { nodes_[index] = node; }
  void log_to(std::vector<std::uint32_t>* log) { log_ = log; }

 private:
  std::vector<RadixNode> nodes_;
  std::vector<std::uint32_t>* log_ = nullptr;
};

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

RouteApp::DescentPlan RouteApp::build_plan(const net::Trace& trace) const {
  DescentPlan plan;
  plan.routes = synthesize_table(trace);

  prof::MemoryProfile scratch;  // the charges the descents make
  RecordingNodes nodes;
  ddt::ArrayContainer<RouteEntry> entries(scratch);
  RadixTree tree(nodes, entries, scratch);
  for (const Route& r : plan.routes) {
    tree.insert(r.prefix, r.prefix_len, r.next_hop, r.interface);
  }
  std::unordered_map<std::uint32_t, std::uint32_t> ids;
  std::vector<std::uint64_t> descent_cpu_ops;  // per destination
  plan.offsets.push_back(0);
  plan.packet_dest.reserve(trace.size());
  for (const net::PacketRecord& p : trace.packets()) {
    const auto [it, fresh] =
        ids.try_emplace(p.dst_ip, static_cast<std::uint32_t>(ids.size()));
    if (fresh) {
      const std::uint64_t cpu_before = scratch.counters().cpu_ops;
      nodes.log_to(&plan.path);
      plan.entry.push_back(tree.descend(p.dst_ip));
      nodes.log_to(nullptr);
      descent_cpu_ops.push_back(scratch.counters().cpu_ops - cpu_before);
      plan.offsets.push_back(static_cast<std::uint32_t>(plan.path.size()));
      plan.packets.push_back(0);
    }
    const std::uint32_t d = it->second;
    ++plan.packets[d];
    plan.packet_dest.push_back(d);
    plan.cpu_ops += 12 + descent_cpu_ops[d];  // header parse + checksum
  }
  plan.path.shrink_to_fit();
  plan.offsets.shrink_to_fit();
  plan.entry.shrink_to_fit();
  plan.packets.shrink_to_fit();
  return plan;
}

std::shared_ptr<const RouteApp::DescentPlan> RouteApp::descent_plan(
    const net::Trace& trace) {
  return plan_.get(trace,
                   [this](const net::Trace& t) { return build_plan(t); });
}

RunResult RouteApp::run(const net::Trace& trace,
                        const ddt::DdtCombination& combo) {
  prof::MemoryProfile node_profile("radix_node");
  prof::MemoryProfile entry_profile("rtentry");
  prof::MemoryProfile cpu_profile("cpu");

  auto entries = ddt::make_container<RouteEntry>(combo[1], entry_profile);

  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  const std::shared_ptr<const DescentPlan> plan = descent_plan(trace);

  // Slot 0 is dispatched once: every node access below is a static call
  // on the concrete container, and each unique destination's planned
  // descent is replayed once and charged for all of its packets. That is
  // exact on every kind: a descent opens with get(0), which costs the
  // same wherever a roving cursor was and leaves it at the root. The
  // rtentry slot follows trace order, since its roving kinds resume from
  // the previous packet's entry, one run of consecutive packets on the
  // same entry at a time: the first use_entry of a run is charged as it
  // falls, and leaves every kind's cursor on the entry, so the second
  // costs what each later one does and is repeated for the rest of the
  // run. Node-container frees at destruction are not part of the run's
  // charges: read the node counters while the container is alive.
  prof::ProfileCounters node_counters;
  ddt::visit_container<RadixNode>(
      combo[0], node_profile, nullptr, [&](auto& nodes) {
        RadixTree table(nodes, *entries, cpu_profile);
        for (const Route& r : plan->routes) {
          table.insert(r.prefix, r.prefix_len, r.next_hop, r.interface);
        }
        for (std::size_t d = 0; d < plan->packets.size(); ++d) {
          const prof::ProfileCounters before = node_profile.counters();
          for (std::uint32_t k = plan->offsets[d]; k < plan->offsets[d + 1];
               ++k) {
            nodes.get(plan->path[k]);
          }
          node_profile.repeat_since(before, plan->packets[d] - 1);
        }
        cpu_profile.record_cpu_ops(plan->cpu_ops);
        const std::vector<std::uint32_t>& dest = plan->packet_dest;
        for (std::size_t p = 0; p < dest.size();) {
          const std::int32_t e = plan->entry[dest[p]];
          std::uint32_t run = 1;
          while (p + run < dest.size() && plan->entry[dest[p + run]] == e) {
            ++run;
          }
          p += run;
          if (e < 0) {
            dropped += run;
            continue;
          }
          forwarded += run;
          table.use_entry(e);
          if (run == 1) continue;
          const prof::ProfileCounters entry_before = entry_profile.counters();
          const prof::ProfileCounters cpu_before = cpu_profile.counters();
          table.use_entry(e, run - 1);
          entry_profile.repeat_since(entry_before, run - 2);
          cpu_profile.repeat_since(cpu_before, run - 2);
        }
        node_counters = node_profile.counters();
      });

  forwarded_.store(forwarded, std::memory_order_relaxed);
  dropped_.store(dropped, std::memory_order_relaxed);

  RunResult result;
  result.per_structure.emplace_back("radix_node", node_counters);
  result.per_structure.emplace_back("rtentry", entry_profile.counters());
  result.total = node_counters;
  result.total += entry_profile.counters();
  result.total += cpu_profile.counters();
  return result;
}

}  // namespace ddtr::apps::route
