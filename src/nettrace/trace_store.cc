#include "nettrace/trace_store.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "support/thread_pool.h"

namespace ddtr::net {

std::vector<std::shared_ptr<const Trace>> TraceStore::get_or_build(
    const std::vector<std::string>& keys,
    const std::function<Trace(std::size_t)>& build) {
  struct Claim {
    std::size_t key;  // index into keys
    std::promise<std::shared_ptr<const Trace>> promise;
  };
  std::vector<std::shared_future<std::shared_ptr<const Trace>>> futures;
  futures.reserve(keys.size());
  std::vector<Claim> claims;
  claims.reserve(keys.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto [it, inserted] = traces_.try_emplace(keys[i]);
      it->second.last_request = ++requests_;
      if (inserted) {
        Claim& claim = claims.emplace_back();
        claim.key = i;
        it->second.trace = claim.promise.get_future().share();
      } else {
        ++hits_;
      }
      futures.push_back(it->second.trace);
    }
    evict_idle();
  }

  // Builds run outside the lock, so requests for other keys proceed.
  const auto build_claim = [&](std::size_t c) {
    Claim& claim = claims[c];
    try {
      auto trace = std::make_shared<const Trace>(build(claim.key));
      trace->content_hash();  // on this lane, not on the first reader's
      claim.promise.set_value(std::move(trace));
    } catch (...) {
      // Vacate the slot first so a later request retries the build, then
      // deliver the failure to every waiter already holding the future.
      {
        std::lock_guard<std::mutex> lock(mu_);
        traces_.erase(keys[claim.key]);
      }
      claim.promise.set_exception(std::current_exception());
    }
  };
  if (!claims.empty()) {
    const std::size_t lanes =
        std::min(claims.size(), support::ThreadPool::resolve_jobs(0));
    try {
      support::parallel_for(lanes, claims.size(), build_claim);
    } catch (const std::system_error&) {
      // No helper lane could start, and the pool ran no build: every
      // claim still owes its waiters a trace.
      for (std::size_t c = 0; c < claims.size(); ++c) build_claim(c);
    }
  }

  std::vector<std::shared_ptr<const Trace>> traces;
  traces.reserve(keys.size());
  for (const auto& future : futures) traces.push_back(future.get());
  return traces;
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

std::vector<std::shared_ptr<const Trace>> TraceStore::get_or_generate(
    const std::vector<TraceRecipe>& recipes) {
  std::vector<std::string> keys;
  keys.reserve(recipes.size());
  for (const TraceRecipe& recipe : recipes) {
    keys.push_back("gen:" + preset_key(recipe.preset) + '#' +
                   std::to_string(recipe.options.packet_count) + '#' +
                   std::to_string(recipe.options.seed_offset));
  }
  return get_or_build(keys, [&](std::size_t i) {
    return TraceGenerator::generate(recipes[i].preset, recipes[i].options);
  });
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
