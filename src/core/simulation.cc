#include "core/simulation.h"

namespace ddtr::core {

SimulationRecord record_of(const Scenario& scenario,
                           const ddt::DdtCombination& combo,
                           const prof::ProfileCounters& counters,
                           const energy::EnergyModel& model) {
  SimulationRecord record;
  record.app_name = scenario.app->name();
  record.combo = combo;
  record.network = scenario.network;
  record.config = scenario.config;
  record.counters = counters;
  record.metrics = model.evaluate(counters);
  return record;
}

SimulationRecord simulate(const Scenario& scenario,
                          const ddt::DdtCombination& combo,
                          const energy::EnergyModel& model) {
  return record_of(scenario, combo,
                   scenario.app->run(*scenario.trace, combo).total, model);
}

}  // namespace ddtr::core
