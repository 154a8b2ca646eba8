// Route exploration end to end: looks the paper's first case study up in
// the workload registry (IPv4 radix-tree forwarding over 7 networks x 2
// table sizes), runs the 3-step methodology through an api::Exploration
// session and walks through what each step produced. The programmatic
// version of `ddtr explore --app route`.
//
//   $ ./route_exploration [scale]
#include <iostream>

#include "api/ddtr.h"
#include "core/report.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace ddtr;

  const double scale = argc > 1 ? std::atof(argv[1]) : 0.2;
  const core::CaseStudy study = api::registry().make_study(
      "route", core::CaseStudyOptions{}.scaled(scale));

  std::cout << "Case study: " << study.name << " — "
            << study.scenarios.size() << " network configurations, "
            << study.combination_count() << " DDT combinations ("
            << study.exhaustive_simulations()
            << " exhaustive simulations)\n\n";

  // One session drives all three steps (step 1 = application level on
  // the representative scenario, step 2 = survivors x all network
  // configurations).
  api::Exploration session(study);
  const core::ExplorationReport& report = session.run();
  std::cout << "step 1: " << report.step1_simulations
            << " simulations done\nstep 2: " << report.step2_simulations
            << " simulations done\n";

  // ---- Step 1: application-level exploration -------------------------
  std::cout << "\nstep 1 per-metric winners on "
            << study.scenarios[study.representative].label() << ":\n";
  core::print_best_by_metric(std::cout, report.step1_records);

  std::cout << "\n" << report.survivors.size()
            << " combinations survive the multi-metric filter:";
  for (const auto& combo : report.survivors) {
    std::cout << ' ' << combo.label();
  }
  std::cout << "\n\n";

  // ---- Step 2: network-level exploration ------------------------------
  // How much does the optimal combination move across configurations?
  support::TextTable winners({"configuration", "energy winner",
                              "accesses winner", "footprint winner"});
  for (const core::Scenario& scenario : study.scenarios) {
    const auto records = report.scenario_records(scenario.label());
    const auto best_by = [&](std::size_t metric) {
      const core::SimulationRecord* best = nullptr;
      for (const auto& r : records) {
        if (best == nullptr ||
            r.metrics.as_array()[metric] < best->metrics.as_array()[metric]) {
          best = &r;
        }
      }
      return best->combo.label();
    };
    winners.add_row({scenario.label(), best_by(0), best_by(2), best_by(3)});
  }
  winners.print(std::cout);

  // ---- Step 3: Pareto-level exploration --------------------------------
  std::cout << "\nstep 3: " << report.pareto_optimal.size()
            << " Pareto-optimal combinations over all configurations:\n";
  support::TextTable final_table(
      {"combination", "energy_mJ", "time_ms", "accesses", "footprint"});
  for (const auto& r : report.pareto_records()) {
    final_table.add_row(
        {r.combo.label(), support::format_double(r.metrics.energy_mj, 4),
         support::format_double(r.metrics.time_s * 1e3, 3),
         support::format_count(r.metrics.accesses),
         support::format_bytes(r.metrics.footprint_bytes)});
  }
  final_table.print(std::cout);

  std::cout << "\nsimulations: " << report.reduced_simulations()
            << " logical / " << report.executed_simulations()
            << " executed (exhaustive would need "
            << report.exhaustive_simulations << ")\n";
  std::cout << "\nPick the point matching your embedded-system constraint "
               "(energy budget, deadline, memory limit) — every listed "
               "choice is optimal in at least one respect.\n";
  return 0;
}
