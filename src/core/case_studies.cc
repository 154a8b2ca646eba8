#include "core/case_studies.h"

#include <cmath>

#include "energy/energy_model.h"

namespace ddtr::core {

CaseStudyOptions CaseStudyOptions::scaled(double factor) const {
  const auto scale = [factor](std::size_t v) {
    const double scaled = static_cast<double>(v) * factor;
    return static_cast<std::size_t>(std::max(200.0, std::round(scaled)));
  };
  CaseStudyOptions out;
  out.route_packets = scale(route_packets);
  out.url_packets = scale(url_packets);
  out.ipchains_packets = scale(ipchains_packets);
  out.drr_packets = scale(drr_packets);
  out.seed_offset = seed_offset;  // scaling resizes traces, not identity
  return out;
}

energy::EnergyModel make_paper_energy_model() {
  energy::EnergyModel::Config config;
  config.clock_ghz = 1.6;  // the paper's measurement host clock
  config.cpi = 1.0;
  config.core_active_mw = 0.0;  // memory-subsystem energy only
  return energy::EnergyModel{energy::MemoryHierarchy::scratchpad(), config};
}

}  // namespace ddtr::core
