// Log post-processing and export — the C++ replacement for the paper's
// Perl step-3 tooling: turns simulation records into printable tables and
// CSV series for the Pareto charts.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/simulation.h"

namespace ddtr::core {

// Writes one CSV row per record: scenario, combination, the four metrics.
void write_records_csv(std::ostream& os,
                       const std::vector<SimulationRecord>& records);

// Writes the 2-D design-space + front for a metric pair: every record is
// emitted with a pareto flag so a plotting tool can draw Figure-3-style
// scatter + curve charts.
void write_pareto_csv(std::ostream& os,
                      const std::vector<SimulationRecord>& records,
                      std::size_t metric_x, std::size_t metric_y);

// Prints the per-metric best combination and its value (the "automatically
// keep the combinations with the lowest ..." summary of steps 1/2).
void print_best_by_metric(std::ostream& os,
                          const std::vector<SimulationRecord>& records);

// Prints one exploration's report as `ddtr explore` and `ddtr submit`
// show it: the simulation counts, the survivors, the 4-D Pareto-optimal
// combinations and the per-metric best of the step-2 logs. A non-empty
// `cache_dir` adds the persistent-cache line naming it.
void print_report(std::ostream& os, const ExplorationReport& report,
                  const std::string& cache_dir);

}  // namespace ddtr::core

