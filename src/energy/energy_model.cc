#include "energy/energy_model.h"

#include "support/fnv_hash.h"

namespace ddtr::energy {

bool dominates(const Metrics& a, const Metrics& b) noexcept {
  return dominates(a.as_array(), b.as_array());
}

std::optional<std::size_t> metric_index(std::string_view name) noexcept {
  static constexpr std::array<const char*, kMetricCount> kAliases = {
      "energy", "time", "accesses", "footprint"};
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (name == kMetricNames[i] || name == kAliases[i]) return i;
  }
  return std::nullopt;
}

EnergyModel::EnergyModel(MemoryHierarchy hierarchy)
    : EnergyModel(std::move(hierarchy), Config{}) {}

EnergyModel::EnergyModel(MemoryHierarchy hierarchy, Config config)
    : hierarchy_(std::move(hierarchy)), config_(config) {}

Metrics EnergyModel::evaluate(const prof::ProfileCounters& counters) const {
  const MemoryCost mem = hierarchy_.cost(counters, config_.clock_ghz);
  const double cycles =
      static_cast<double>(counters.cpu_ops) * config_.cpi + mem.memory_cycles;
  const double time_s = cycles / (config_.clock_ghz * 1e9);

  const double dynamic_mj = mem.dynamic_energy_pj * 1e-9;  // pJ -> mJ
  const double static_mj =
      (mem.leakage_power_mw + config_.core_active_mw) * time_s;  // mW*s = mJ

  Metrics m;
  m.energy_mj = dynamic_mj + static_mj;
  m.time_s = time_s;
  m.accesses = counters.accesses();
  m.footprint_bytes = counters.peak_bytes;
  return m;
}

std::uint64_t EnergyModel::fingerprint() const noexcept {
  support::Fnv1a64 h;
  h.u32(kEnergyModelVersion);
  h.f64(config_.clock_ghz).f64(config_.cpi).f64(config_.core_active_mw);
  h.u64(hierarchy_.fingerprint());
  return h.digest();
}

}  // namespace ddtr::energy
