// Route — the paper's first case study (NetBench "route"): IPv4 forwarding
// with a radix-tree routing table. Dominant DDTs: the radix-node pool and
// the rtentry pool. The application-specific network parameter is the
// routing-table size (the paper explores 128 and 256 entries).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/common/app.h"
#include "apps/common/trace_memo.h"

namespace ddtr::apps::route {

class RouteApp final : public NetworkApplication {
 public:
  struct Config {
    std::size_t table_size;  // routing-table entries (paper: 128 / 256)
    std::uint64_t seed;      // prefix synthesis stream
  };

  explicit RouteApp(Config config) : config_(config) {}

  std::string name() const override { return "Route"; }

  std::vector<std::string> dominant_structures() const override {
    return {"radix_node", "rtentry"};
  }

  std::string config_label() const override {
    return "table=" + std::to_string(config_.table_size);
  }

  // Each slot charges its own profile; containers keep logical order, so
  // the kernel's operation stream is the same whatever the kinds.
  bool separable() const override { return true; }

  RunResult run(const net::Trace& trace,
                const ddt::DdtCombination& combo) override;

  // Forwarding statistics of the last completed run (functional output,
  // used by the correctness tests). Published atomically at the end of
  // run(), so concurrent runs on a shared instance are safe.
  std::uint64_t forwarded() const noexcept {
    return forwarded_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  // One route of the synthesized table, as run() inserts it.
  struct Route {
    std::uint32_t prefix;
    std::uint8_t prefix_len;
    std::uint32_t next_hop;
    std::uint16_t interface;
  };

  // Everything run() replays that depends on the trace and the config
  // only, never on the DDT combination. Each unique destination's lookup
  // is recorded once: RadixTree::descend over a host-side node store,
  // logging the node indices it reads. Destination d reads nodes
  // path[offsets[d] .. offsets[d + 1]) in that order, matches entry[d]
  // (-1: no route) and is the destination of packets[d] packets; the trie
  // never changes during the lookups, so every kernel run's descents are
  // exactly these. cpu_ops is the lookups' CPU work over the whole trace
  // (header parse plus each packet's descent), which no kind changes.
  struct DescentPlan {
    std::vector<Route> routes;
    std::vector<std::uint32_t> path;
    std::vector<std::uint32_t> offsets;
    std::vector<std::int32_t> entry;
    std::vector<std::uint32_t> packets;      // packet count per destination
    std::vector<std::uint32_t> packet_dest;  // destination id per packet
    std::uint64_t cpu_ops = 0;
  };

  // The plan run() replays for `trace` (built on first use, then shared).
  // Read-only; the descent-plan oracle test rebuilds a direct run from it.
  std::shared_ptr<const DescentPlan> descent_plan(const net::Trace& trace);

 private:
  // The routing table run() installs before replaying the lookups.
  std::vector<Route> synthesize_table(const net::Trace& trace) const;
  DescentPlan build_plan(const net::Trace& trace) const;

  Config config_;
  TraceMemo<DescentPlan> plan_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace ddtr::apps::route

