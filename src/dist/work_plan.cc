#include "dist/work_plan.h"

#include "core/simulation_cache.h"
#include "ddt/kinds.h"

namespace ddtr::dist {

WorkPlan::WorkPlan(const core::CaseStudy& study,
                   const energy::EnergyModel& model, std::size_t shard_count)
    : shard_count_(shard_count == 0 ? 1 : shard_count) {
  const std::vector<ddt::DdtCombination> combos =
      ddt::enumerate_combinations(study.slot_kind_sets());
  units_.reserve(study.scenarios.size() * combos.size());
  for (std::size_t s = 0; s < study.scenarios.size(); ++s) {
    const core::Scenario& scenario = study.scenarios[s];
    for (const ddt::DdtCombination& combo : combos) {
      WorkUnit unit;
      unit.scenario_index = s;
      unit.combo = combo;
      unit.key = core::SimulationCache::key_of(scenario, combo, model);
      units_.push_back(std::move(unit));
    }
  }
}

std::vector<std::size_t> WorkPlan::shard_units(std::size_t shard) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (shard_of(units_[i]) == shard) out.push_back(i);
  }
  return out;
}

}  // namespace ddtr::dist
