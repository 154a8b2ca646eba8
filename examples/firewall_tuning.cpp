// Firewall tuning: registers a *custom* workload rather than using the
// paper's fixed case-study grid — the workflow a downstream user follows
// for their own appliance: describe the deployment grid with
// api::StudyBuilder, register it, explore it through an api::Exploration
// session, and read off the recommendation for each deployment size.
// Once registered it would equally be reachable from the CLI as
// `ddtr explore --app firewall-fleet` (same registry, same lookup path).
//
//   $ ./firewall_tuning
#include <iostream>

#include "api/ddtr.h"
#include "apps/ipchains/ipchains_app.h"
#include "support/table.h"

int main() {
  using namespace ddtr;

  // A deployment-specific configuration matrix: a small branch-office
  // network and a busy backbone tap, each with two rule-base sizes and
  // two connection-cache budgets. The builder crosses networks x configs
  // and shares one generated trace per network internally.
  api::registry().add(
      {"firewall-fleet", "custom IPchains deployment matrix",
       [](const core::CaseStudyOptions& options) {
         api::StudyBuilder builder("IPchains-custom");
         // 5000 packets at scale 1, as the built-in IPchains study;
         // packets_for honours --scale and a fixed packet count.
         builder.packets(options.packets_for(5000))
             .networks({"nlanr-satellite", "nlanr-backbone"});
         for (const std::size_t rules : {std::size_t{48}, std::size_t{192}}) {
           for (const std::size_t conns :
                {std::size_t{64}, std::size_t{512}}) {
             builder.config("rules=" + std::to_string(rules) +
                                ",conns=" + std::to_string(conns),
                            [rules, conns] {
                              return std::make_shared<
                                  apps::ipchains::IpchainsApp>(
                                  apps::ipchains::IpchainsApp::Config{
                                      rules, conns, 424242});
                            });
           }
         }
         return builder.build();
       }});

  // 0.6 x the 5000-packet full length = 3000-packet traces.
  const core::CaseStudy study = api::registry().make_study(
      "firewall-fleet", core::CaseStudyOptions{}.scaled(0.6));

  std::cout << "Exploring " << study.scenarios.size()
            << " firewall deployments x " << study.combination_count()
            << " DDT combinations...\n\n";

  api::Exploration session(study);
  const core::ExplorationReport& report = session.run();

  std::cout << "simulations: " << report.reduced_simulations()
            << " (exhaustive would need " << report.exhaustive_simulations
            << ")\n\n";

  // Per-deployment recommendation: the energy winner among survivors, with
  // its cost vector.
  support::TextTable table({"deployment", "recommended DDTs", "energy_mJ",
                            "time_ms", "footprint"});
  for (const core::Scenario& scenario : study.scenarios) {
    const auto records = report.scenario_records(scenario.label());
    const core::SimulationRecord* best = nullptr;
    for (const auto& r : records) {
      if (best == nullptr || r.metrics.energy_mj < best->metrics.energy_mj) {
        best = &r;
      }
    }
    table.add_row({scenario.label(), best->combo.label(),
                   support::format_double(best->metrics.energy_mj, 4),
                   support::format_double(best->metrics.time_s * 1e3, 3),
                   support::format_bytes(best->metrics.footprint_bytes)});
  }
  table.print(std::cout);

  std::cout << "\nNote how the recommendation can differ between the "
               "branch office and the backbone tap — network-level "
               "exploration (step 2) exists precisely because one "
               "configuration's optimum is not another's.\n";
  return 0;
}
