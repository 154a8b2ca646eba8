// Simulation plumbing shared by the exploration steps: a Scenario is one
// network configuration of a case study (trace + configured application); a
// SimulationRecord is one log line of the paper's tool flow (combination,
// configuration, the four metrics, raw counters).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/common/app.h"
#include "ddt/kinds.h"
#include "energy/energy_model.h"
#include "energy/metrics.h"
#include "nettrace/trace.h"

namespace ddtr::core {

// One network configuration of a case study. Trace sharing is explicit:
// `trace` points at ONE immutable net::Trace per network (built once via
// net::TraceStore), shared by every scenario that replays it — including
// Route's two radix-table sizes over the same seven networks — and safe to
// replay from any number of explorer lanes concurrently, since a stored
// trace is never mutated. `app` may likewise be shared between concurrent
// simulations; see the NetworkApplication::run re-entrancy contract.
struct Scenario {
  std::string network;                     // trace / preset name
  std::string config;                      // application parameter label
  std::shared_ptr<const net::Trace> trace;
  std::shared_ptr<apps::NetworkApplication> app;

  std::string label() const {
    return config.empty() ? network : network + "/" + config;
  }
};

// One simulation log entry.
struct SimulationRecord {
  std::string app_name;
  ddt::DdtCombination combo;
  std::string network;
  std::string config;
  energy::Metrics metrics;
  prof::ProfileCounters counters;

  std::string scenario_label() const {
    return config.empty() ? network : network + "/" + config;
  }
};

// The record of `combo` on `scenario` for a run that produced `counters`:
// labels from the scenario, metrics from `model`. simulate() is
// record_of(scenario, combo, app->run(...).total, model); the explorer also
// builds records from counters composed per slot.
SimulationRecord record_of(const Scenario& scenario,
                           const ddt::DdtCombination& combo,
                           const prof::ProfileCounters& counters,
                           const energy::EnergyModel& model);

// Runs one (scenario, combination) simulation and evaluates its metrics.
// Re-entrant: safe to call concurrently, including on the same scenario —
// all mutable state (MemoryProfile counters, per-run RNG streams, DDT
// containers) is owned by the call, and EnergyModel::evaluate is const.
SimulationRecord simulate(const Scenario& scenario,
                          const ddt::DdtCombination& combo,
                          const energy::EnergyModel& model);

// A case study: an application family across its network configurations.
struct CaseStudy {
  std::string name;
  std::vector<Scenario> scenarios;
  std::size_t representative = 0;        // scenario used by step 1

  // The kind sets the explorer enumerates, one per dominant structure:
  // the application's slot_kinds(). Every scenario of a study runs one
  // application family, so the representative speaks for all of them.
  std::vector<std::vector<ddt::DdtKind>> slot_kind_sets() const {
    if (representative >= scenarios.size()) return {};
    return scenarios[representative].app->slot_kinds();
  }

  std::size_t combination_count() const {
    std::size_t total = 1;
    for (const auto& set : slot_kind_sets()) total *= set.size();
    return total;
  }
  // The paper's "exhaustive simulations" column: every combination on every
  // network configuration.
  std::size_t exhaustive_simulations() const {
    return combination_count() * scenarios.size();
  }
};

}  // namespace ddtr::core

