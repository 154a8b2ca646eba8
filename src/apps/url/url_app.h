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

 private:
  static constexpr std::uint32_t kNoMatch =
      std::numeric_limits<std::uint32_t>::max();

  // The index of the first rule whose pattern occurs in each payload
  // (kNoMatch if none), by payload id. It depends on the trace and the
  // rule texts only, so it is computed once per trace (first_match_) and
  // every kernel run replays the same rule scans.
  std::vector<std::uint32_t> first_matches(const net::Trace& trace) const;

  Config config_;
  TraceMemo<std::vector<std::uint32_t>> first_match_;
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> defaulted_{0};
};

}  // namespace ddtr::apps::url

