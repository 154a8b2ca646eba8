// Explicit sharing of immutable traces. A Trace is expensive to build
// (generation or text parsing) but read-only afterwards, so every Scenario
// that replays the same network holds a shared_ptr to ONE Trace instance,
// built once and replayed concurrently by the parallel explorer without
// copying. The store memoizes by generation parameters (or file path) so
// repeated case-study construction — e.g. a bench sweeping jobs = 1/2/4/8
// over fresh studies — also reuses the parsed traces.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nettrace/generator.h"
#include "nettrace/presets.h"
#include "nettrace/trace.h"

namespace ddtr::net {

// One trace to generate: a network preset and the generator's options.
struct TraceRecipe {
  NetworkPreset preset;
  TraceGenerator::Options options;
};

// Thread-safe memoization of shared_ptr<const Trace>. The shared_ptr
// aliasing is the sharing contract: holders may replay the trace from any
// thread because a stored Trace is never mutated again.
//
// Builds do not serialize behind one lock: each key owns a shared_future
// slot. A request claims, under one lock, every key of its batch that no
// one holds yet, then builds only its claims, concurrently (the calling
// thread is one lane; at most ThreadPool::resolve_jobs(0) lanes run), and
// each lane also computes its trace's content_hash(). Keys already built,
// or claimed by another request, are answered through their futures, so
// concurrent requests for the SAME key wait on one build, and a batch
// whose keys are all stored (a warm resubmit) starts no thread. A batch
// with one missing key builds it on the calling thread.
//
// Eviction: an entry is IDLE when its trace is built and no holder but the
// store references it (every Scenario that replayed it is gone). Each
// request that leaves more than kRetain entries drops the least recently
// requested idle ones until kRetain remain (or none is idle); a later
// request for a dropped key rebuilds the same content. Referenced and
// in-flight traces count toward kRetain but are never evicted. So a
// long-lived process (the `ddtr serve` daemon) pins at most kRetain
// traces beyond the ones its live studies hold. A trace costs 32 bytes
// per packet (one PacketRecord) plus its payload table (a few KB of URLs
// for url), so the idle worst case is kRetain x 32 B x packets: about
// 10 MB at scale 1 (at most 10,000 packets a trace) and about 1 GiB at
// the daemon's bound of 1,000,000 packets a trace (serve::kMaxPackets).
class TraceStore {
 public:
  // Entries kept before idle ones are evicted: the four built-in studies
  // at one option set ask for 7 + 5 + 7 + 5 = 24 traces, so resubmitting
  // them stays warm.
  static constexpr std::size_t kRetain = 32;

  // Returns the traces `recipes` generate, in order, building the missing
  // ones once (see the class comment).
  std::vector<std::shared_ptr<const Trace>> get_or_generate(
      const std::vector<TraceRecipe>& recipes);

  // Generic entry point: returns the trace of each key, in order;
  // `build(i)` makes keys[i]'s trace and runs on one of the call's lanes
  // for each key this call claims. A build that throws vacates its slot,
  // so a later request can retry, and propagates to every waiter on that
  // key, this call included (after its other claims are built).
  std::vector<std::shared_ptr<const Trace>> get_or_build(
      const std::vector<std::string>& keys,
      const std::function<Trace(std::size_t)>& build);

  // Traces stored or being built, idle ones included.
  std::size_t size() const;
  // How many requests were answered from the store without rebuilding
  // (ready entries and waits on another requester's in-flight build).
  std::uint64_t hits() const;
  void clear();

  // Process-wide store used by the case-study builders.
  static TraceStore& global();

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const Trace>> trace;
    std::uint64_t last_request = 0;  // requests_ at the key's latest request
  };

  // Drops the least recently requested idle entries while more than
  // kRetain entries are stored. Requires mu_.
  void evict_idle();

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> traces_;
  std::uint64_t requests_ = 0;  // recency clock, one tick per request
  std::uint64_t hits_ = 0;
};

}  // namespace ddtr::net

