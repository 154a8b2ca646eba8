#include "nettrace/trace_store.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

namespace ddtr::net {

std::shared_ptr<const Trace> TraceStore::get_or_build(
    const std::string& key, const std::function<Trace()>& build) {
  // Per-key future slots instead of holding the lock across build():
  // concurrent requests for the same trace still build it exactly once
  // (waiters block on that key's future), but requests for distinct keys
  // build concurrently — a case-study fan-out generating several networks'
  // traces must not serialize behind one store-wide lock.
  std::shared_future<std::shared_ptr<const Trace>> future;
  std::shared_ptr<std::promise<std::shared_ptr<const Trace>>> promise;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = traces_.find(key);
    if (it != traces_.end()) {
      ++hits_;
      it->second.last_request = ++requests_;
      future = it->second.trace;
    } else {
      promise =
          std::make_shared<std::promise<std::shared_ptr<const Trace>>>();
      future = promise->get_future().share();
      traces_.emplace(key, Entry{future, ++requests_});
    }
    evict_idle();
  }
  if (!promise) return future.get();  // ready, or waits on in-flight build

  try {
    auto trace = std::make_shared<const Trace>(build());
    promise->set_value(trace);
    return trace;
  } catch (...) {
    // Vacate the slot first so a later request retries the build, then
    // deliver the failure to every waiter already holding the future.
    {
      std::lock_guard<std::mutex> lock(mu_);
      traces_.erase(key);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
}

namespace {

// Every generation-relevant preset field goes into the key: a caller who
// copies a registry preset and tweaks a parameter (ablations do) must get
// a fresh trace, not the cached one built from the original values.
// Doubles are emitted as hexfloats — exact, round-trippable renderings.
// The default ostream precision (6 significant digits) truncated them, so
// two presets differing in the 7th digit of e.g. zipf_skew collided on one
// key and silently shared the wrong trace.
std::string preset_key(const NetworkPreset& p) {
  std::ostringstream os;
  os << std::hexfloat;
  os << p.name << '|' << p.node_count << '|' << p.mean_rate_pps << '|'
     << p.burstiness << '|' << p.zipf_skew << '|' << p.mtu_fraction << '|'
     << p.mtu << '|' << p.small_mean << '|' << p.http_fraction << '|'
     << p.udp_fraction << '|' << p.seed;
  return os.str();
}

}  // namespace

std::shared_ptr<const Trace> TraceStore::get_or_generate(
    const NetworkPreset& preset, const TraceGenerator::Options& options) {
  const std::string key = "gen:" + preset_key(preset) + '#' +
                          std::to_string(options.packet_count) + '#' +
                          std::to_string(options.seed_offset);
  return get_or_build(
      key, [&] { return TraceGenerator::generate(preset, options); });
}

void TraceStore::evict_idle() {
  if (traces_.size() <= kRetain) return;
  std::vector<decltype(traces_)::iterator> idle;
  for (auto it = traces_.begin(); it != traces_.end(); ++it) {
    const auto& trace = it->second.trace;
    // Idle: built, and the store's copy is the only reference left.
    if (trace.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        trace.get().use_count() == 1) {
      idle.push_back(it);
    }
  }
  std::sort(idle.begin(), idle.end(), [](const auto& a, const auto& b) {
    return a->second.last_request < b->second.last_request;
  });
  const std::size_t excess =
      std::min(traces_.size() - kRetain, idle.size());
  for (std::size_t i = 0; i < excess; ++i) traces_.erase(idle[i]);
}

std::size_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

std::uint64_t TraceStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

void TraceStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  hits_ = 0;
}

TraceStore& TraceStore::global() {
  static TraceStore store;
  return store;
}

}  // namespace ddtr::net
