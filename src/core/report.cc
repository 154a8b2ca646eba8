#include "core/report.h"

#include <algorithm>
#include <limits>
#include <string>

#include "core/pareto.h"
#include "support/csv.h"
#include "support/table.h"

namespace ddtr::core {

void write_records_csv(std::ostream& os,
                       const std::vector<SimulationRecord>& records) {
  support::CsvWriter csv(os);
  csv.write_row({"app", "network", "config", "combination", "energy_mJ",
                 "time_s", "accesses", "footprint_B"});
  for (const SimulationRecord& r : records) {
    csv.write_row({r.app_name, r.network, r.config, r.combo.label(),
                   support::format_double(r.metrics.energy_mj, 4),
                   support::format_double(r.metrics.time_s, 6),
                   std::to_string(r.metrics.accesses),
                   std::to_string(r.metrics.footprint_bytes)});
  }
}

void write_pareto_csv(std::ostream& os,
                      const std::vector<SimulationRecord>& records,
                      std::size_t metric_x, std::size_t metric_y) {
  std::vector<energy::Metrics> points;
  points.reserve(records.size());
  for (const SimulationRecord& r : records) points.push_back(r.metrics);
  const std::vector<std::size_t> front =
      pareto_front_2d(points, metric_x, metric_y);

  support::CsvWriter csv(os);
  csv.write_row({"combination", "network", "config",
                 energy::kMetricNames[metric_x],
                 energy::kMetricNames[metric_y], "pareto"});
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto v = points[i].as_array();
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    csv.write_row({records[i].combo.label(), records[i].network,
                   records[i].config, support::format_double(v[metric_x], 6),
                   support::format_double(v[metric_y], 6),
                   on_front ? "1" : "0"});
  }
}

void print_best_by_metric(std::ostream& os,
                          const std::vector<SimulationRecord>& records) {
  if (records.empty()) return;
  support::TextTable table({"metric", "best combination", "value"});
  for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
    double best = std::numeric_limits<double>::infinity();
    const SimulationRecord* winner = nullptr;
    for (const SimulationRecord& r : records) {
      const double v = r.metrics.as_array()[m];
      if (v < best) {
        best = v;
        winner = &r;
      }
    }
    table.add_row({energy::kMetricNames[m], winner->combo.label(),
                   support::format_double(best, 4)});
  }
  table.print(os);
}

void print_report(std::ostream& os, const ExplorationReport& report,
                  const std::string& cache_dir) {
  // Counts go through std::to_string, so the stream's locale (a daemon's
  // ostringstream takes the global one) cannot group their digits.
  using std::to_string;
  os << "application: " << report.app_name << '\n'
     << "configurations: " << to_string(report.scenario_count) << '\n'
     << "exhaustive simulations: " << to_string(report.exhaustive_simulations)
     << '\n'
     << "reduced simulations:   " << to_string(report.reduced_simulations())
     << '\n'
     << "executed simulations:  " << to_string(report.executed_simulations())
     << " (cache hit rate "
     << support::format_percent(report.cache_hit_rate()) << ")\n"
     << "kernel runs:           " << to_string(report.kernel_runs) << '\n';
  if (!cache_dir.empty()) {
    os << "persistent cache:      loaded "
       << to_string(report.persistent_loaded) << ", stored "
       << to_string(report.persistent_stored) << " records in " << cache_dir
       << '\n';
  }
  os << "survivors after step 1: " << to_string(report.survivors.size())
     << '\n'
     << "Pareto-optimal combinations:\n";
  for (const SimulationRecord& r : report.pareto_records()) {
    os << "  " << r.combo.label() << "  energy "
       << support::format_double(r.metrics.energy_mj, 4) << " mJ, time "
       << support::format_double(r.metrics.time_s * 1e3, 3)
       << " ms, accesses " << support::format_count(r.metrics.accesses)
       << ", footprint " << support::format_bytes(r.metrics.footprint_bytes)
       << '\n';
  }
  os << "\nper-metric best combinations (step 2 logs):\n";
  print_best_by_metric(os, report.step2_records);
}

}  // namespace ddtr::core
