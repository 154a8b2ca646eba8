#include "api/exploration.h"

#include <stdexcept>

#include "core/case_studies.h"

namespace ddtr::api {

Exploration::Exploration(core::CaseStudy study)
    : Exploration(std::move(study), core::make_paper_energy_model()) {}

Exploration::Exploration(core::CaseStudy study, energy::EnergyModel model)
    : study_(std::move(study)), model_(std::move(model)) {}

Exploration& Exploration::jobs(std::size_t lanes) {
  options_.jobs = lanes;
  return *this;
}

Exploration& Exploration::survivor_cap(double fraction) {
  options_.survivor_cap_fraction = fraction;
  return *this;
}

Exploration& Exploration::champions_per_metric(std::size_t count) {
  options_.champions_per_metric = count;
  return *this;
}

Exploration& Exploration::step1_policy(core::Step1Policy policy) {
  options_.step1_policy = policy;
  return *this;
}

Exploration& Exploration::cache_dir(std::string dir) {
  options_.cache_dir = std::move(dir);
  return *this;
}

Exploration& Exploration::trace_sink(obs::TraceWriter* sink) {
  options_.trace_sink = sink;
  return *this;
}

const core::ExplorationReport& Exploration::run() {
  // Cleared up front: if this run throws (e.g. a composition guard
  // mismatch), a stale report from an earlier run must not masquerade as
  // the new configuration's result.
  report_.reset();
  const core::ExplorationEngine engine(model_, options_);
  report_ = engine.explore(study_);
  return *report_;
}

const core::ExplorationReport& Exploration::report() const {
  if (!report_) {
    throw std::logic_error("Exploration::report(): run() has not completed");
  }
  return *report_;
}

}  // namespace ddtr::api
