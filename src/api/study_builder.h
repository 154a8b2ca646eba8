// Fluent, declarative construction of core::CaseStudy values — the
// replacement for hand-rolled Scenario assembly. A study is described as a
// grid: a list of network presets crossed with a list of application
// configurations (label + app factory). build() expands the cross-product
// in network-major order (the order every paper study uses), builds each
// network's trace exactly once through net::TraceStore::global() so all
// scenarios of that network share one immutable trace (the networks the
// store lacks are synthesized concurrently, one batch request per build),
// and validates the result.
//
//   core::CaseStudy study =
//       api::StudyBuilder("Route")
//           .packets(2500)
//           .first_networks(7)
//           .config("table=128", [] { return make_app(128); })
//           .config("table=256", [] { return make_app(256); })
//           .build();
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.h"

namespace ddtr::api {

class StudyBuilder {
 public:
  // Builds the application instance of one scenario. Called once per
  // (network, config) cell; capture the configuration in the closure.
  using AppFactory =
      std::function<std::shared_ptr<apps::NetworkApplication>()>;

  // `name` is the study's display name (ExplorationReport::app_name).
  explicit StudyBuilder(std::string name);

  // Packets per generated trace; a registry factory passes
  // options.packets_for(N), N being the study's length at scale 1.
  StudyBuilder& packets(std::size_t per_trace);
  // Generation-seed offset for every network trace (default 0, the paper
  // sample; see CaseStudyOptions::seed_offset).
  StudyBuilder& seed_offset(std::size_t offset);
  // Appends one network preset (by nettrace preset name) to the grid.
  StudyBuilder& network(std::string preset_name);
  StudyBuilder& networks(std::initializer_list<const char*> preset_names);
  // Appends the first `count` presets, the paper's convention for Route
  // (7) and IPchains (7).
  StudyBuilder& first_networks(std::size_t count);
  // Appends one application configuration: `label` becomes
  // Scenario::config ("table=128", "rules=64", or "" for single-config
  // studies via app()).
  StudyBuilder& config(std::string label, AppFactory factory);
  // Single-configuration study: one unlabeled config.
  StudyBuilder& app(AppFactory factory);
  // Scenario index step 1 uses as the representative network
  // configuration (default 0, the first grid cell).
  StudyBuilder& representative(std::size_t scenario_index);

  // Scenarios build() will produce: networks x configs.
  std::size_t scenario_count() const;

  // Expands the grid. The slots and their legal kinds are the
  // application's (NetworkApplication::slot_kinds). Throws
  // std::invalid_argument when the description is incomplete (no name, no
  // networks, no configs, zero packets, representative out of range) or
  // the application declares no slots or an empty kind set, and
  // std::out_of_range for unknown preset names.
  core::CaseStudy build() const;

 private:
  struct ConfigCell {
    std::string label;
    AppFactory factory;
  };

  std::string name_;
  std::size_t packets_ = 0;
  std::size_t seed_offset_ = 0;
  std::vector<std::string> networks_;
  std::vector<ConfigCell> configs_;
  std::size_t representative_ = 0;
};

}  // namespace ddtr::api

