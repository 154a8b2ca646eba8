#include "api/study_builder.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "nettrace/presets.h"
#include "nettrace/trace_store.h"

namespace ddtr::api {

StudyBuilder::StudyBuilder(std::string name) : name_(std::move(name)) {}

StudyBuilder& StudyBuilder::packets(std::size_t per_trace) {
  packets_ = per_trace;
  return *this;
}

StudyBuilder& StudyBuilder::seed_offset(std::size_t offset) {
  seed_offset_ = offset;
  return *this;
}

StudyBuilder& StudyBuilder::network(std::string preset_name) {
  networks_.push_back(std::move(preset_name));
  return *this;
}

StudyBuilder& StudyBuilder::networks(
    std::initializer_list<const char*> preset_names) {
  for (const char* name : preset_names) networks_.emplace_back(name);
  return *this;
}

StudyBuilder& StudyBuilder::first_networks(std::size_t count) {
  for (const net::NetworkPreset& preset : net::first_presets(count)) {
    networks_.push_back(preset.name);
  }
  return *this;
}

StudyBuilder& StudyBuilder::config(std::string label, AppFactory factory) {
  configs_.push_back({std::move(label), std::move(factory)});
  return *this;
}

StudyBuilder& StudyBuilder::app(AppFactory factory) {
  return config("", std::move(factory));
}

StudyBuilder& StudyBuilder::representative(std::size_t scenario_index) {
  representative_ = scenario_index;
  return *this;
}

std::size_t StudyBuilder::scenario_count() const {
  return networks_.size() * configs_.size();
}

core::CaseStudy StudyBuilder::build() const {
  if (name_.empty()) {
    throw std::invalid_argument("study has no name");
  }
  if (packets_ == 0) {
    throw std::invalid_argument("study '" + name_ +
                                "' declares no trace length (packets)");
  }
  if (networks_.empty()) {
    throw std::invalid_argument("study '" + name_ + "' has no networks");
  }
  if (configs_.empty()) {
    throw std::invalid_argument("study '" + name_ +
                                "' has no application configurations");
  }
  if (representative_ >= scenario_count()) {
    throw std::invalid_argument("study '" + name_ +
                                "' representative index out of range");
  }
  for (const ConfigCell& cell : configs_) {
    if (!cell.factory) {
      throw std::invalid_argument("study '" + name_ +
                                  "' has a null application factory");
    }
  }

  core::CaseStudy study;
  study.name = name_;
  study.representative = representative_;
  study.scenarios.reserve(scenario_count());
  // One immutable trace per network, shared by every config cell (and
  // every other study replaying the same preset at this length). The
  // store builds the missing ones concurrently.
  std::vector<net::TraceRecipe> recipes;
  recipes.reserve(networks_.size());
  for (const std::string& network : networks_) {
    net::TraceRecipe& recipe = recipes.emplace_back();
    recipe.preset = net::network_preset(network);
    recipe.options.packet_count = packets_;
    recipe.options.seed_offset = seed_offset_;
  }
  const auto traces = net::TraceStore::global().get_or_generate(recipes);
  for (std::size_t n = 0; n < recipes.size(); ++n) {
    for (const ConfigCell& cell : configs_) {
      core::Scenario scenario;
      scenario.network = recipes[n].preset.name;
      scenario.config = cell.label;
      scenario.trace = traces[n];
      scenario.app = cell.factory();
      if (!scenario.app) {
        throw std::invalid_argument("study '" + name_ +
                                    "' factory returned a null application");
      }
      study.scenarios.push_back(std::move(scenario));
    }
  }

  // The slot shape is the application's (CaseStudy::slot_kind_sets).
  const auto kind_sets = study.slot_kind_sets();
  if (kind_sets.empty()) {
    throw std::invalid_argument("study '" + name_ + "' app declares no slots");
  }
  for (const auto& set : kind_sets) {
    if (set.empty()) {
      throw std::invalid_argument("study '" + name_ +
                                  "' has an empty slot kind set");
    }
  }
  return study;
}

}  // namespace ddtr::api
