// Shared inputs of the paper's four case studies (§4): their trace-length
// options and the paper cost model. The studies themselves live in the
// workload registry (api/registry.h, api/builtin_workloads.cc) as "route",
// "url", "ipchains" and "drr"; look them up with
// ddtr::api::registry().make_study() and build custom ones with
// api::StudyBuilder.
#pragma once

#include "core/simulation.h"

namespace ddtr::core {

// Trace lengths per application, scaled down for CI-speed runs via
// `scale` (1.0 = the defaults below).
struct CaseStudyOptions {
  std::size_t route_packets = 2500;
  std::size_t url_packets = 10000;
  std::size_t ipchains_packets = 5000;
  std::size_t drr_packets = 6000;
  // Offset added to every trace's generation seed (see
  // net::TraceGenerator::Options::seed_offset): 0 reproduces the paper
  // traces, a nonzero offset yields a distinct-but-same-shape traffic
  // sample. Content-hash cache keys keep differently-seeded runs apart.
  std::size_t seed_offset = 0;

  CaseStudyOptions scaled(double factor) const;
};

// The cost model used for every paper reproduction: a scratchpad SRAM
// sized to the run's peak footprint — i.e. dynamic-memory-subsystem energy
// as the paper estimates with CACTI — with no host-core power term, so
// combination differences are not drowned by constant background power.
// api::Exploration uses it as the default model.
energy::EnergyModel make_paper_energy_model();

}  // namespace ddtr::core

