// Memoization of simulate() results keyed by CONTENT identity, not
// labels: {application name + cache_version, scenario config, trace
// content hash, DDT combination, energy-model fingerprint}. Simulations
// are deterministic —
// same trace content, same app/config, same combination, same cost model,
// same record — so any pair the flow revisits can replay the cached record
// instead of re-running the trace. The big win within one explore() is
// step 2 on the representative scenario: step 1 already simulated every
// combination there, so every survivor is a cache hit and the
// representative scenario costs step 2 zero simulations.
//
// The keys are sound across processes (what PersistentSimulationCache
// relies on): a trace's network *label* never appears in the key — two
// runs can share a label yet differ in trace content, and vice versa —
// and the energy-model fingerprint keeps records from a different cost
// model (or model version) from ever hitting.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/simulation.h"

namespace ddtr::core {

// Thread-safe: concurrent lanes of the parallel explorer share one cache.
// The engine probes with find() and insert()s the records it
// computes (composed per slot or simulated in full), so the hit/miss stats
// count one probe per unit. The lock is never held across a simulation;
// two lanes racing on the same missing key may both compute it, which is
// benign (deterministic records, the second insert is a no-op).
class SimulationCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  SimulationCache();

  // Cache key of one (scenario, combination, model) triple. Fields are
  // joined with the unit separator (0x1f), which no label or hex digest
  // contains, so fields cannot alias across the joins.
  static std::string key_of(const Scenario& scenario,
                            const ddt::DdtCombination& combo,
                            const energy::EnergyModel& model);

  // The same key from its combination-independent parts, which a caller
  // keying many combinations builds once: key_prefix(scenario) (app,
  // cache_version, config and trace content hash, each followed by the
  // separator) and key_suffix(model) (the separator and the model
  // fingerprint). key_of above appends the label and the suffix to the
  // same prefix.
  static std::string key_prefix(const Scenario& scenario);
  static std::string key_suffix(const energy::EnergyModel& model);
  static std::string key_of(std::string_view prefix,
                            const ddt::DdtCombination& combo,
                            std::string_view suffix);

  // Pure lookup; counts a hit or a miss. On a hit the record's
  // network/config labels are rewritten to the requesting scenario's:
  // the metrics depend only on the key's content identity, but the labels
  // belong to the request (the hit may come from a run that replayed
  // identical content under another network name).
  std::optional<SimulationRecord> find(const Scenario& scenario,
                                       const ddt::DdtCombination& combo,
                                       const energy::EnergyModel& model);
  // The same lookup under `key`, which must be `scenario`'s key.
  std::optional<SimulationRecord> find(const std::string& key,
                                       const Scenario& scenario);

  // Stores a record under `key` without touching the hit/miss stats (used
  // to seed the cache from a persistent store). Existing entries win.
  void insert(const std::string& key, const SimulationRecord& record);

  // Snapshot of every (key, record) entry, in unspecified order.
  std::vector<std::pair<std::string, SimulationRecord>> entries() const;

  // Copies of the entries whose key `known` lacks, in unspecified order —
  // what a persistent store has yet to write. Only those are copied, so a
  // fully persisted cache costs one probe per entry and no copies.
  std::vector<std::pair<std::string, SimulationRecord>> entries_missing_from(
      const std::unordered_set<std::string>& known) const;

  std::size_t size() const;
  Stats stats() const;

  // Identifies this cache among every SimulationCache of the process; no
  // two caches ever share one, even when one reuses another's address.
  std::uint64_t id() const noexcept { return id_; }
  // How many insert() calls added an entry: unchanged means no new key.
  std::uint64_t insertions() const;

 private:
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, SimulationRecord> records_;
  Stats stats_;
  std::uint64_t insertions_ = 0;
};

}  // namespace ddtr::core

