// Deterministic work-sharding for distributed exploration. The DDTR flow
// is embarrassingly parallel at the (scenario x combination) simulation
// level; a WorkPlan enumerates that unit space for one case study and
// assigns shard `i` of `N` a stable subset — stable because units are
// identified by their CONTENT-HASH cache key (SimulationCache::key_of:
// trace content, app version, configuration, combination, energy-model
// fingerprint), so two processes on two hosts that build the same study
// compute byte-identical plans without ever talking to each other.
//
// Execution model (see core::ExplorationOptions::shard_*): every worker
// replicates step 1 (one scenario — the seed of the shared survivor
// selection) and executes only its shard of step 2 (the
// scenario-dominated axis that scales with deployment size), storing the
// records into a per-shard cache segment. dist::SegmentMerger then
// consolidates the segments so a final unsharded run replays everything.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/simulation.h"
#include "energy/energy_model.h"

namespace ddtr::dist {

// One simulation unit of a study: a (scenario, combination) pair,
// identified by its content-hash cache key.
struct WorkUnit {
  std::size_t scenario_index = 0;
  ddt::DdtCombination combo;
  std::string key;
};

class WorkPlan {
 public:
  // Enumerates every unit of `study` (scenario-major, combinations in
  // ddt::enumerate_combinations order — the exhaustive unit space; the
  // reduced flow's step-1 and step-2 units are subsets of it).
  WorkPlan(const core::CaseStudy& study, const energy::EnergyModel& model,
           std::size_t shard_count);

  std::size_t shard_count() const noexcept { return shard_count_; }
  const std::vector<WorkUnit>& units() const noexcept { return units_; }

  // The shard owning a unit — core::shard_of_key, the same function the
  // sharded engine applies, so a plan and the workers always agree.
  std::size_t shard_of(const WorkUnit& unit) const {
    return core::shard_of_key(unit.key, shard_count_);
  }

  // Indices into units() assigned to `shard`. Across all shards these
  // form a partition of the unit space: disjoint, covering, and stable
  // across process restarts and hosts.
  std::vector<std::size_t> shard_units(std::size_t shard) const;

 private:
  std::size_t shard_count_;
  std::vector<WorkUnit> units_;
};

}  // namespace ddtr::dist

