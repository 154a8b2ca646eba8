#include "core/case_studies.h"

#include <algorithm>
#include <cmath>

#include "energy/energy_model.h"

namespace ddtr::core {

CaseStudyOptions CaseStudyOptions::scaled(double factor) const {
  CaseStudyOptions out = *this;
  out.scale = scale * factor;
  return out;
}

std::size_t CaseStudyOptions::packets_for(std::size_t full_length) const {
  if (packets > 0) return packets;
  const double scaled = static_cast<double>(full_length) * scale;
  return static_cast<std::size_t>(std::max(200.0, std::round(scaled)));
}

energy::EnergyModel make_paper_energy_model() {
  energy::EnergyModel::Config config;
  config.clock_ghz = 1.6;  // the paper's measurement host clock
  config.cpi = 1.0;
  config.core_active_mw = 0.0;  // memory-subsystem energy only
  return energy::EnergyModel{energy::MemoryHierarchy::scratchpad(), config};
}

}  // namespace ddtr::core
