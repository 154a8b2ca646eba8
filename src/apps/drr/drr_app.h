// DRR — the paper's fourth case study (NetBench "drr"): Deficit Round
// Robin fair scheduling. Dominant DDTs: the flow table (searched on every
// arrival, walked round-robin by the scheduler) and the per-flow packet
// queues (enqueue at tail, dequeue at head — the access pattern that favors
// list DDTs over arrays, reversing the winner relative to Route). The
// application-specific parameter is the Level of Fairness (quantum scale,
// paper §3.2).
#pragma once

#include <atomic>
#include <cstdint>

#include "apps/common/app.h"

namespace ddtr::apps::drr {

struct FlowState {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;
  std::uint32_t deficit = 0;       // DRR deficit counter (bytes)
  std::uint32_t backlog = 0;       // packets currently queued
  std::uint64_t sent_bytes = 0;
  std::uint32_t dropped = 0;
};

struct QueuedPacket {
  std::uint16_t length = 0;
  double arrival_s = 0.0;
};

class DrrApp final : public NetworkApplication {
 public:
  struct Config {
    double fairness_level;     // quantum = fairness_level * MTU
    double link_headroom;      // service rate / offered rate (>1 drains)
    std::size_t queue_cap;     // per-flow packet cap (tail drop beyond)
    std::uint64_t seed;
  };

  explicit DrrApp(Config config) : config_(config) {}

  std::string name() const override { return "DRR"; }

  std::vector<std::string> dominant_structures() const override {
    return {"flow_table", "packet_queue"};
  }

  // The flow table is keyed by the packet five-tuple, so it can legally
  // take the keyed kinds (including kOpenHash); the per-flow queues are
  // positional FIFOs.
  std::vector<std::vector<ddt::DdtKind>> slot_kinds() const override {
    return {ddt::keyed_slot_kinds(), ddt::default_slot_kinds()};
  }

  std::string config_label() const override;

  // Each slot charges its own profile; containers keep logical order, so
  // the kernel's operation stream is the same whatever the kinds.
  bool separable() const override { return true; }

  RunResult run(const net::Trace& trace,
                const ddt::DdtCombination& combo) override;

  // Scheduling statistics of the most recently completed run, published
  // atomically at the end of run() so concurrent runs on a shared
  // instance are safe (last writer wins).
  std::uint64_t sent_packets() const noexcept {
    return sent_packets_.load(std::memory_order_relaxed);
  }
  std::uint64_t sent_bytes() const noexcept {
    return sent_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_packets() const noexcept {
    return dropped_packets_.load(std::memory_order_relaxed);
  }
  // Jain fairness index over per-flow sent bytes in the last run — the
  // functional property DRR exists to provide.
  double fairness_index() const noexcept {
    return fairness_index_.load(std::memory_order_relaxed);
  }

 private:
  Config config_;
  std::atomic<std::uint64_t> sent_packets_{0};
  std::atomic<std::uint64_t> sent_bytes_{0};
  std::atomic<std::uint64_t> dropped_packets_{0};
  std::atomic<double> fairness_index_{0.0};
};

}  // namespace ddtr::apps::drr

