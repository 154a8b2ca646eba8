// Process-wide metrics registry (see README "Observability"). The hot
// simulation path must stay contention-free, so the primitives mirror
// MemoryProfile's lock-free design:
//
//   - Counter: monotonically increasing, sharded across cache-line-aligned
//     relaxed atomics (a thread picks its shard once, round-robin), summed
//     on read — concurrent add() never bounces one cache line between
//     lanes.
//   - Gauge: a single signed atomic (set/add), for levels like queue depth.
//   - Histogram: lock-free log2 buckets plus count/sum/min/max, for
//     durations (microseconds by convention, ".._us" names).
//
// Registry hands out named instruments with stable addresses, so call
// sites hoist the lookup once:
//
//   static obs::Counter& hits = obs::registry().counter("explore.hits");
//   hits.add();
//
// render_text() is deterministic (sorted by name) — it feeds the daemon's
// StatsReply and `ddtr stats --metrics`. The global registry() is
// intentionally leaked: instrument references cached in function-local
// statics must outlive every other static (thread pools, arenas) during
// shutdown.
//
// Everything here is observation-only: no instrument ever feeds cache
// keys, reports, or any other output that must stay byte-identical.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ddtr::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  // Each thread claims one shard for life (round-robin over a global
  // counter), so two hot lanes almost never share a shard's cache line.
  static std::size_t shard_index() noexcept;

  Shard shards_[kShards];
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  void observe(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  // min()/max() are UINT64_MAX / 0 while count() == 0.
  std::uint64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  // Bucket b counts values whose bit width is b — i.e. v in
  // [2^(b-1), 2^b), with bucket 0 holding exact zeros.
  static constexpr std::size_t kBuckets = 64;
  std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b < kBuckets ? b : kBuckets - 1].load(
        std::memory_order_relaxed);
  }
  // The q-quantile (q in [0, 1]) estimated from the buckets: the upper
  // edge of the bucket holding the ceil(q * count())-th smallest value,
  // clamped to [min(), max()] — so never below the true quantile and less
  // than twice it. 0 while count() == 0.
  std::uint64_t quantile(double q) const noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

// Named instruments with stable addresses: counter("x") always returns
// the same object, so references can be hoisted into function-local
// statics on hot paths. The maps are mutex-guarded (lookups are cold);
// the instruments themselves are lock-free.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Deterministic dump, sorted by name within each kind:
  //   counter explore.step1.executed 128
  //   gauge pool.queue_depth 0
  //   histogram explore.sim_us count=128 sum=51234 min=120 max=960
  //     p50=511 p90=960 p99=960 b9=70 ...  (one line)
  std::string render_text() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The process-wide registry every built-in instrumentation site uses.
// Deliberately leaked (never destroyed): cached instrument references in
// late-running static destructors stay valid.
Registry& registry();

}  // namespace ddtr::obs
