// Uniform interface of the four case-study applications. An application
// declares its dominant dynamic data structures (the slots of a
// DdtCombination) and replays a trace with a chosen combination, returning
// the profiling counters the cost models consume.
//
// Mirrors the paper's instrumentation contract (§3.1): the application's
// functionality never changes; only the DDT implementation behind each
// dominant structure does.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ddt/kinds.h"
#include "nettrace/trace.h"
#include "profiling/memory_profile.h"

namespace ddtr::apps {

// Per-structure profiling breakdown of one run. `total` also includes the
// application's non-DDT CPU work; the per-structure entries are what the
// step-1 dominance profiling inspects.
struct RunResult {
  prof::ProfileCounters total;
  std::vector<std::pair<std::string, prof::ProfileCounters>> per_structure;
};

class NetworkApplication {
 public:
  virtual ~NetworkApplication() = default;

  virtual std::string name() const = 0;

  // Names of the dominant dynamic data structures, in DdtCombination slot
  // order.
  virtual std::vector<std::string> dominant_structures() const = 0;
  std::size_t slot_count() const { return dominant_structures().size(); }

  // The DDT kinds legal for each slot, in slot order. The default offers
  // every kind that works unkeyed; applications that derive a lookup key
  // for a slot's records (connection/flow tables) override this to offer
  // the keyed kinds (adding kOpenHash) on that slot.
  virtual std::vector<std::vector<ddt::DdtKind>> slot_kinds() const {
    return std::vector<std::vector<ddt::DdtKind>>(slot_count(),
                                                  ddt::default_slot_kinds());
  }

  // Replays `trace` with the DDT implementations selected by `combo`
  // (combo.size() must equal slot_count()). Deterministic: same trace and
  // combo always produce the same counters.
  //
  // Re-entrancy contract (required by the parallel explorer): concurrent
  // run() calls on the SAME instance must not interfere. All per-run state
  // — profiles, containers, RNGs, statistics — lives on run()'s stack;
  // last-run statistics exposed through accessors are published atomically
  // once at completion (last writer wins).
  virtual RunResult run(const net::Trace& trace,
                        const ddt::DdtCombination& combo) = 0;

  // Whether run()'s counters split per slot (the explorer's composition
  // contract). A separable application promises, for every trace:
  //  - per_structure[s] is slot s's profile, in slot order, and depends
  //    only on combo[s] — never on the kinds of the other slots;
  //  - the CPU remainder, total minus the sum of per_structure, is the
  //    same for every combination.
  // The explorer then computes a scenario's missing records from one run
  // per slot kind (max over slots of the kinds needed) instead of one run
  // per combination, and cross-checks one off-diagonal combination
  // against a full run. The default is false: a custom workload keeps one
  // run() per simulated combination until it opts in.
  virtual bool separable() const { return false; }

  // A one-line description of the application-specific network parameter
  // configuration (radix-table size, rule count, ...), for logs.
  virtual std::string config_label() const { return ""; }

  // Version of this application's simulation semantics, folded into
  // simulation-cache keys (the application-level analog of
  // energy::kEnergyModelVersion). Bump it whenever run()'s mapping from
  // (trace, combo) to counters changes, so persisted records computed by
  // the old logic stop hitting instead of replaying stale metrics. The
  // name() + config_label() pair in the key covers *which* app and
  // parameters ran; this covers *how* it ran. The library-wide DDT
  // accounting version is folded in so a change to how containers charge
  // accesses retires every cached record at once.
  virtual std::uint32_t cache_version() const {
    return ddt::kDdtAccountingVersion;
  }
};

}  // namespace ddtr::apps

