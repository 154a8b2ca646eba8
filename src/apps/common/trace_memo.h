// Per-trace memo of an application's host-side set-up work: the parts of
// a run that depend only on the trace and the app's configuration, never
// on the DDT combination (route's routing table and recorded trie
// descents, url's first matching rule per request). The paper's contract
// (§3.1) is that only the DDT implementation varies between runs, so a
// kernel run can take these from the memo and do only the container
// operations and their charges.
//
// One entry per app instance, keyed by Trace::content_hash(): a scenario
// owns its app and replays one trace, so the entry is filled by the first
// run and shared by every later one. A run on a trace with other content
// recomputes and replaces it. Safe for concurrent run() calls: the entry
// is filled under a mutex (so runs racing on a fresh app compute it once)
// and handed out as an immutable shared_ptr, so a replaced value stays
// alive for the runs still reading it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "nettrace/trace.h"

namespace ddtr::apps {

template <typename V>
class TraceMemo {
 public:
  // The memoized value for `trace`, computing it as `compute(trace)` when
  // the entry is empty or was filled for different trace content.
  template <typename Compute>
  std::shared_ptr<const V> get(const net::Trace& trace, Compute&& compute) {
    const std::uint64_t hash = trace.content_hash();
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ == nullptr || hash_ != hash) {
      value_ = std::make_shared<const V>(compute(trace));
      hash_ = hash;
    }
    return value_;
  }

 private:
  std::mutex mu_;
  std::uint64_t hash_ = 0;
  std::shared_ptr<const V> value_;
};

}  // namespace ddtr::apps
