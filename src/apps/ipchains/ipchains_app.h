// IPchains — the paper's third case study (NetBench "ipchains"): a
// first-match-wins packet-filter chain plus a bounded connection-tracking
// cache. Dominant DDTs: the rule chain (scanned per packet) and the
// connection table (searched, updated, inserted into and evicted from).
// The application-specific network parameter is the number of activated
// rules (paper §3.2).
#pragma once

#include <atomic>
#include <cstdint>

#include "apps/common/app.h"

namespace ddtr::apps::ipchains {

enum class RuleAction : std::uint8_t { kDeny = 0, kAccept = 1 };

// One filter rule; zero prefix length / zero protocol mean "any".
struct FirewallRule {
  std::uint32_t src_prefix = 0;
  std::uint32_t dst_prefix = 0;
  std::uint8_t src_len = 0;
  std::uint8_t dst_len = 0;
  std::uint16_t dport_lo = 0;
  std::uint16_t dport_hi = 65535;
  std::uint8_t protocol = 0;
  RuleAction action = RuleAction::kAccept;
  std::uint32_t hits = 0;
};

// Connection-tracking record (FIFO-evicted bounded cache).
struct ConnEntry {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;
  std::uint32_t packets = 0;
  std::uint64_t bytes = 0;
};

class IpchainsApp final : public NetworkApplication {
 public:
  struct Config {
    std::size_t rule_count;       // activated rules (paper's app parameter)
    std::size_t max_connections;  // conntrack cache bound
    std::uint64_t seed;
  };

  explicit IpchainsApp(Config config) : config_(config) {}

  std::string name() const override { return "IPchains"; }

  std::vector<std::string> dominant_structures() const override {
    return {"rule_chain", "conn_table"};
  }

  // The connection table is keyed by the packet five-tuple, so it can
  // legally take the keyed kinds (including kOpenHash); the rule chain is
  // positional only.
  std::vector<std::vector<ddt::DdtKind>> slot_kinds() const override {
    return {ddt::default_slot_kinds(), ddt::keyed_slot_kinds()};
  }

  std::string config_label() const override {
    return "rules=" + std::to_string(config_.rule_count);
  }

  // Each slot charges its own profile; containers keep logical order, so
  // the kernel's operation stream is the same whatever the kinds.
  bool separable() const override { return true; }

  RunResult run(const net::Trace& trace,
                const ddt::DdtCombination& combo) override;

  // Filtering statistics of the most recently completed run, published
  // atomically at the end of run() so concurrent runs on a shared
  // instance are safe (last writer wins).
  std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t denied() const noexcept {
    return denied_.load(std::memory_order_relaxed);
  }

 private:
  Config config_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> denied_{0};
};

}  // namespace ddtr::apps::ipchains

