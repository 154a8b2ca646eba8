// Shared inputs of the paper's four case studies (§4): their trace-length
// options and the paper cost model. The studies themselves live in the
// workload registry (api/registry.h, api/builtin_workloads.cc) as "route",
// "url", "ipchains" and "drr", each beside its full trace length; look
// them up with ddtr::api::registry().make_study() and build custom ones
// with api::StudyBuilder.
#pragma once

#include "core/simulation.h"

namespace ddtr::core {

// How long a study's traces are, and which traffic sample they hold.
struct CaseStudyOptions {
  // Multiplies every study's full trace length (1.0 = the paper lengths).
  double scale = 1.0;
  // When nonzero, every trace is this many packets, whatever the scale.
  std::size_t packets = 0;
  // Offset added to every trace's generation seed (see
  // net::TraceGenerator::Options::seed_offset): 0 reproduces the paper
  // traces, a nonzero offset yields a distinct-but-same-shape traffic
  // sample. Content-hash cache keys keep differently-seeded runs apart.
  std::size_t seed_offset = 0;

  // A copy with `scale` multiplied by `factor`.
  CaseStudyOptions scaled(double factor) const;
  // The trace length of a study whose full length is `full_length`:
  // `packets` when set, else full_length x scale rounded, at least 200.
  std::size_t packets_for(std::size_t full_length) const;
};

// The cost model used for every paper reproduction: a scratchpad SRAM
// sized to the run's peak footprint — i.e. dynamic-memory-subsystem energy
// as the paper estimates with CACTI — with no host-core power term, so
// combination differences are not drowned by constant background power.
// api::Exploration uses it as the default model.
energy::EnergyModel make_paper_energy_model();

}  // namespace ddtr::core
