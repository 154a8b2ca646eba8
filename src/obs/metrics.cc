#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace ddtr::obs {

std::size_t Counter::shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

void Histogram::observe(std::uint64_t v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  const std::size_t b = std::bit_width(v);
  buckets_[b < kBuckets ? b : kBuckets - 1].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double wanted = std::ceil(std::clamp(q, 0.0, 1.0) *
                                  static_cast<double>(n));
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(wanted));
  // Concurrent observe() calls can leave the buckets a few values behind
  // count(); the walk then ends at max().
  std::uint64_t upper = max();
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) {
      upper = b == 0 ? 0
              : b < kBuckets - 1 ? (std::uint64_t{1} << b) - 1
                                 : UINT64_MAX;
      break;
    }
  }
  return std::clamp(upper, min(), max());
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Registry::render_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "counter " << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge " << name << ' ' << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram " << name << " count=" << h->count()
       << " sum=" << h->sum();
    if (h->count() > 0) {
      os << " min=" << h->min() << " max=" << h->max()
         << " p50=" << h->quantile(0.50) << " p90=" << h->quantile(0.90)
         << " p99=" << h->quantile(0.99);
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (const std::uint64_t n = h->bucket(b)) os << " b" << b << '=' << n;
      }
    }
    os << '\n';
  }
  return os.str();
}

Registry& registry() {
  // Leaked on purpose — see the header. ddtr-lint's allocation-policy
  // rule only covers src/ddt/, and this single allocation is the
  // documented exception to "no raw new": a static destructor must never
  // run for the registry.
  static Registry* instance = new Registry();
  return *instance;
}

}  // namespace ddtr::obs
