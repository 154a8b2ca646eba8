// URL — the paper's second case study (NetBench "url"): URL-based context
// switching. HTTP request packets are matched against a pattern table and
// dispatched to the server pool behind the switch. Dominant DDTs: the
// pattern table and the server table (both singly linked lists in the
// original NetBench implementation, which is the baseline the paper's
// headline 80% energy / 20% time gains are measured against).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "apps/common/app.h"
#include "apps/common/trace_memo.h"

namespace ddtr::apps::url {

// A switching rule: substring pattern -> server. Fixed-width storage keeps
// records POD so every DDT can hold them by value.
struct UrlPattern {
  char pattern[40] = {};
  std::uint8_t length = 0;
  std::uint16_t server = 0;
  std::uint32_t hits = 0;
};

// Back-end server state updated on every dispatched request.
struct ServerInfo {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  std::uint32_t active_requests = 0;
  std::uint64_t bytes_routed = 0;
};

class UrlApp final : public NetworkApplication {
 public:
  struct Config {
    std::size_t pattern_count;  // switching rules
    std::size_t server_count;   // back-end pool size
    std::uint64_t seed;
  };

  explicit UrlApp(Config config) : config_(config) {}

  std::string name() const override { return "URL"; }

  std::vector<std::string> dominant_structures() const override {
    return {"pattern_table", "server_table"};
  }

  std::string config_label() const override {
    return "patterns=" + std::to_string(config_.pattern_count);
  }

  // Each slot charges its own profile; containers keep logical order, so
  // the kernel's operation stream is the same whatever the kinds.
  bool separable() const override { return true; }

  RunResult run(const net::Trace& trace,
                const ddt::DdtCombination& combo) override;

  // Statistics of the most recently completed run. run() keeps per-run
  // state on its stack and publishes these atomically on completion, so
  // concurrent runs on a shared instance are safe (last writer wins).
  std::uint64_t dispatched() const noexcept {
    return dispatched_.load(std::memory_order_relaxed);
  }
  std::uint64_t defaulted() const noexcept {
    return defaulted_.load(std::memory_order_relaxed);
  }

  // The switching rules run() installs, in scan order. They depend on the
  // config only; the scan-plan oracle test rebuilds a direct per-packet
  // run from them.
  std::vector<UrlPattern> rule_table() const;

 private:
  static constexpr std::uint32_t kNoMatch =
      std::numeric_limits<std::uint32_t>::max();

  // Everything run() replays that depends on the trace and the rule texts
  // only, never on the DDT combination, computed once per trace (plan_).
  // By payload id: the index of the first rule whose pattern occurs in the
  // payload (kNoMatch if none) and how many packets carry the payload.
  // cpu_ops is the kernel's CPU work over the whole trace (TCP
  // bookkeeping per packet; per request the scan cost of every visited
  // rule and the NAT rewrite), which no kind changes.
  struct ScanPlan {
    std::vector<std::uint32_t> first_match;
    std::vector<std::uint32_t> packets;
    std::uint64_t cpu_ops = 0;
  };
  ScanPlan build_plan(const net::Trace& trace) const;

  Config config_;
  TraceMemo<ScanPlan> plan_;
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> defaulted_{0};
};

}  // namespace ddtr::apps::url

