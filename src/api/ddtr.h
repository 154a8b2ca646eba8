// Umbrella header of the public ddtr API. Everything a downstream user
// needs to drive the framework on their own workload:
//
//   1. Register (or look up) a workload        — api/registry.h
//   2. Describe its scenario grid declaratively — api/study_builder.h
//   3. Run the three-step methodology           — api/exploration.h
//
//   #include "api/ddtr.h"
//
//   ddtr::api::registry().add({"mydevice", "my appliance's packet path",
//       [](const ddtr::core::CaseStudyOptions& options) {
//         return ddtr::api::StudyBuilder("MyDevice")
//             .packets(options.packets_for(10000))  // packets at scale 1
//             .networks({"nlanr-campus", "dart-berry"})
//             .app([] { return std::make_shared<MyApp>(...); })
//             .build();
//       }});
//   ddtr::api::Exploration session(
//       ddtr::api::registry().make_study("mydevice", {}));
//   const auto& report = session.jobs(4).run();
//
// The core types the API traffics in (CaseStudy, ExplorationReport,
// Pareto utilities, the paper energy model) come along transitively.
#pragma once

#include "api/exploration.h"
#include "api/registry.h"
#include "api/study_builder.h"
#include "core/case_studies.h"
#include "core/explorer.h"
#include "core/pareto.h"

