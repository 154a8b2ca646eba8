// Exploration session: the public way to drive the three-step methodology
// on one case study. Wraps core::ExplorationEngine behind chainable
// options and owns the resulting report:
//
//   api::Exploration session(api::registry().make_study("url", options));
//   const core::ExplorationReport& report =
//       session.jobs(4).survivor_cap(0.2).run();
//
// Reports are bit-identical at every jobs count, with or without a
// trace sink. With cache_dir() set, a rerun replays earlier runs'
// simulations from the persistent cache: zero executed simulations, a
// byte-identical report.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "core/explorer.h"
#include "core/simulation.h"
#include "energy/energy_model.h"

namespace ddtr::api {

class Exploration {
 public:
  // Uses the paper's cost model (core::make_paper_energy_model).
  explicit Exploration(core::CaseStudy study);
  Exploration(core::CaseStudy study, energy::EnergyModel model);

  // Chainable option setters; see core::ExplorationOptions for semantics.
  Exploration& jobs(std::size_t lanes);
  Exploration& survivor_cap(double fraction);
  Exploration& champions_per_metric(std::size_t count);
  Exploration& step1_policy(core::Step1Policy policy);
  // Persist the simulation cache across runs in this directory (empty =
  // in-memory only). A rerun with a warm cache executes zero simulations
  // and produces a byte-identical report; see
  // core::ExplorationOptions::cache_dir.
  Exploration& cache_dir(std::string dir);

  // Emit Chrome trace_event spans for this session's runs into an
  // externally-owned writer (see src/obs/trace.h). Null disables tracing;
  // purely observational — reports stay byte-identical either way.
  Exploration& trace_sink(obs::TraceWriter* sink);

  const core::CaseStudy& study() const noexcept { return study_; }
  const core::ExplorationOptions& options() const noexcept {
    return options_;
  }

  // Runs the three steps and stores the report. Calling run() again
  // re-explores (e.g. after changing options) and replaces the report.
  const core::ExplorationReport& run();

  bool has_report() const noexcept { return report_.has_value(); }
  // Typed access to the last run's report; throws std::logic_error when
  // run() has not completed yet.
  const core::ExplorationReport& report() const;

 private:
  core::CaseStudy study_;
  energy::EnergyModel model_;
  core::ExplorationOptions options_;
  std::optional<core::ExplorationReport> report_;
};

}  // namespace ddtr::api

