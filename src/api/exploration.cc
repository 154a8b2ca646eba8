#include "api/exploration.h"

#include <stdexcept>

#include "core/case_studies.h"

namespace ddtr::api {

Exploration::Exploration(core::CaseStudy study)
    : Exploration(std::move(study), core::make_paper_energy_model()) {}

Exploration::Exploration(core::CaseStudy study, energy::EnergyModel model)
    : study_(std::move(study)),
      model_(std::move(model)),
      cancel_(std::make_shared<std::atomic<bool>>(false)) {
  options_.cancel = cancel_;
}

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

Exploration& Exploration::memoize_simulations(bool enabled) {
  options_.memoize_simulations = enabled;
  return *this;
}

Exploration& Exploration::cache_dir(std::string dir) {
  options_.cache_dir = std::move(dir);
  return *this;
}

Exploration& Exploration::shard(std::size_t index, std::size_t count) {
  options_.shard_index = index;
  options_.shard_count = count == 0 ? 1 : count;
  return *this;
}

Exploration& Exploration::on_progress(core::ProgressObserver observer) {
  options_.progress = std::move(observer);
  return *this;
}

Exploration& Exploration::shared_state(core::SharedState* state) {
  options_.shared = state;
  return *this;
}

Exploration& Exploration::trace_sink(obs::TraceWriter* sink) {
  options_.trace_sink = sink;
  return *this;
}

void Exploration::cancel() {
  cancel_->store(true, std::memory_order_relaxed);
}

Exploration& Exploration::cancel_token(
    std::shared_ptr<std::atomic<bool>> token) {
  if (!token) {
    throw std::invalid_argument("Exploration::cancel_token: null token");
  }
  cancel_ = std::move(token);
  options_.cancel = cancel_;
  return *this;
}

const core::ExplorationReport& Exploration::run() {
  // Cleared up front: if this run throws (e.g. out of a progress
  // observer), a stale report from an earlier run must not masquerade as
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
