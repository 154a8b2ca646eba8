// DRR scheduler deep-dive: runs the Deficit Round Robin case study under
// several DDT choices for the packet queues and shows (a) that the
// scheduler's functional output — throughput, drops, Jain fairness — is
// identical regardless of the DDT, and (b) how the queue DDT alone moves
// the cost metrics, including the Level-of-Fairness knob (the paper's
// application-specific network parameter for DRR) — first hand-driven,
// then as a declarative api::StudyBuilder grid fed to an exploration
// session.
//
//   $ ./drr_scheduler
#include <iostream>

#include "api/ddtr.h"
#include "apps/drr/drr_app.h"
#include "nettrace/trace_store.h"
#include "support/table.h"

int main() {
  using namespace ddtr;

  // Shared immutable trace via the store — the same instance any study
  // replaying dart-dorm at this length would get.
  net::TraceRecipe recipe{net::network_preset("dart-dorm"), {}};
  recipe.options.packet_count = 5000;
  const auto trace = net::TraceStore::global().get_or_generate({recipe})[0];

  std::cout << "DRR on " << trace->name() << ": " << trace->size()
            << " packets\n\n== Queue DDT sweep (flow table fixed to AR) "
               "==\n\n";

  const energy::EnergyModel model = core::make_paper_energy_model();
  support::TextTable table({"queue DDT", "sent", "dropped", "fairness",
                            "energy_mJ", "accesses", "footprint"});
  apps::drr::DrrApp app(apps::drr::DrrApp::Config{1.0, 1.15, 64, 777});
  for (ddt::DdtKind queue_kind :
       {ddt::DdtKind::kArray, ddt::DdtKind::kArrayOfPointers,
        ddt::DdtKind::kSll, ddt::DdtKind::kSllRoving,
        ddt::DdtKind::kSllOfArrays, ddt::DdtKind::kDllOfArraysRoving}) {
    const ddt::DdtCombination combo({ddt::DdtKind::kArray, queue_kind});
    const apps::RunResult run = app.run(*trace, combo);
    const energy::Metrics m = model.evaluate(run.total);
    table.add_row({std::string(ddt::to_string(queue_kind)),
                   support::format_count(app.sent_packets()),
                   support::format_count(app.dropped_packets()),
                   support::format_double(app.fairness_index(), 4),
                   support::format_double(m.energy_mj, 4),
                   support::format_count(m.accesses),
                   support::format_bytes(m.footprint_bytes)});
  }
  table.print(std::cout);
  std::cout << "\nFunctional columns (sent/dropped/fairness) are identical "
               "by construction; only the cost columns move.\n";

  std::cout << "\n== Level of Fairness sweep (quantum = L x MTU) ==\n\n";
  support::TextTable lof({"fairness level", "fairness index", "energy_mJ",
                          "accesses"});
  for (double level : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    apps::drr::DrrApp swept(
        apps::drr::DrrApp::Config{level, 1.15, 64, 777});
    const apps::RunResult run = swept.run(
        *trace,
        ddt::DdtCombination({ddt::DdtKind::kArray, ddt::DdtKind::kSll}));
    const energy::Metrics m = model.evaluate(run.total);
    lof.add_row({support::format_double(level, 2),
                 support::format_double(swept.fairness_index(), 4),
                 support::format_double(m.energy_mj, 4),
                 support::format_count(m.accesses)});
  }
  lof.print(std::cout);
  std::cout << "\nSmaller quanta interleave flows more finely (better "
               "fairness, more scheduler work) — this is the knob the "
               "network-level exploration step varies for DRR.\n";

  // The same knob as a declarative grid: one network x one configuration
  // per fairness level, handed to the 3-step methodology. This is how an
  // application-specific parameter becomes part of the exploration space.
  std::cout << "\n== The same sweep as an exploration grid ==\n\n";
  api::StudyBuilder builder("DRR-fairness");
  builder.packets(5000).network("dart-dorm");
  for (double level : {0.5, 1.0, 2.0}) {
    builder.config("lof=" + support::format_double(level, 1), [level] {
      return std::make_shared<apps::drr::DrrApp>(
          apps::drr::DrrApp::Config{level, 1.15, 64, 777});
    });
  }
  api::Exploration session(builder.build());
  const core::ExplorationReport& report = session.run();
  std::cout << "explored " << report.scenario_count
            << " fairness configurations with "
            << report.reduced_simulations() << " simulations ("
            << report.exhaustive_simulations << " exhaustive); "
            << report.pareto_optimal.size()
            << " Pareto-optimal DDT combinations:\n";
  for (const auto& r : report.pareto_records()) {
    std::cout << "  " << r.combo.label() << "  energy "
              << support::format_double(r.metrics.energy_mj, 4)
              << " mJ, accesses " << support::format_count(r.metrics.accesses)
              << '\n';
  }
  return 0;
}
