// The four paper case studies (§4), expressed as registry workloads built
// with StudyBuilder. These definitions are the canonical ones and
// reproduce the exact exploration-space shape of the seed: Route over 7
// networks x 2 radix-table sizes (1400 exhaustive simulations), URL over 5
// networks (500), IPchains over 7 networks x 3 rule-set sizes (2100), DRR
// over 5 networks (500). Each study names its full trace length (packets at
// scale 1) in its packets_for() call.
#include "api/registry.h"
#include "api/study_builder.h"
#include "apps/drr/drr_app.h"
#include "apps/ipchains/ipchains_app.h"
#include "apps/route/route_app.h"
#include "apps/url/url_app.h"
#include "core/case_studies.h"
#include "core/simulation.h"

namespace ddtr::api::detail {

namespace {

core::CaseStudy make_route(const core::CaseStudyOptions& options) {
  StudyBuilder builder("Route");
  builder.packets(options.packets_for(2500))
      .seed_offset(options.seed_offset).first_networks(7);
  for (const std::size_t table : {std::size_t{128}, std::size_t{256}}) {
    builder.config("table=" + std::to_string(table), [table] {
      return std::make_shared<apps::route::RouteApp>(
          apps::route::RouteApp::Config{table, 7001 + table});
    });
  }
  return builder.build();
}

core::CaseStudy make_url(const core::CaseStudyOptions& options) {
  // The web-heavy wireless presets are the natural choice for a URL
  // switch (paper: 100 combinations x 5 networks = 500 exhaustive).
  return StudyBuilder("URL")
      .packets(options.packets_for(10000))
      .seed_offset(options.seed_offset)
      .networks({"dart-berry", "dart-sudikoff", "dart-whittemore",
                 "dart-library", "nlanr-campus"})
      .app([] {
        return std::make_shared<apps::url::UrlApp>(
            apps::url::UrlApp::Config{24, 8, 8101});
      })
      .build();
}

core::CaseStudy make_ipchains(const core::CaseStudyOptions& options) {
  StudyBuilder builder("IPchains");
  builder.packets(options.packets_for(5000))
      .seed_offset(options.seed_offset).first_networks(7);
  for (const std::size_t rules :
       {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
    builder.config("rules=" + std::to_string(rules), [rules] {
      return std::make_shared<apps::ipchains::IpchainsApp>(
          apps::ipchains::IpchainsApp::Config{rules, 256, 9201 + rules});
    });
  }
  return builder.build();
}

core::CaseStudy make_drr(const core::CaseStudyOptions& options) {
  // 5 networks, Level of Fairness fixed at 1 MTU (500 exhaustive).
  return StudyBuilder("DRR")
      .packets(options.packets_for(6000))
      .seed_offset(options.seed_offset)
      .networks({"dart-berry", "dart-dorm", "dart-library",
                 "nlanr-satellite", "nlanr-campus"})
      .app([] {
        return std::make_shared<apps::drr::DrrApp>(
            apps::drr::DrrApp::Config{1.0, 1.15, 64, 10301});
      })
      .build();
}

}  // namespace

void register_builtin_workloads(StudyRegistry& registry) {
  // Registration order is the paper's Table 1 order; registry().names()
  // (and thus `ddtr apps` and the bench reproduction pass) preserve it.
  registry.add({"route",
                "IPv4 radix-tree forwarding, 7 networks x 2 table sizes",
                make_route});
  registry.add({"url",
                "URL-based switching proxy, 5 wireless/campus networks",
                make_url});
  registry.add({"ipchains",
                "stateful firewall, 7 networks x 3 activated rule sets",
                make_ipchains});
  registry.add({"drr",
                "Deficit Round Robin scheduler, 5 networks",
                make_drr});
}

}  // namespace ddtr::api::detail
