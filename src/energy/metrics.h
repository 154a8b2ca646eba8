// The four cost metrics the methodology explores (paper §3.1): energy,
// execution time, memory accesses and memory footprint — plus the raw
// counters they were derived from.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ddtr::energy {

// One simulation's cost vector.
struct Metrics {
  double energy_mj = 0.0;          // total (dynamic + leakage) energy
  double time_s = 0.0;             // modeled execution time
  std::uint64_t accesses = 0;      // memory accesses (reads + writes)
  std::uint64_t footprint_bytes = 0;  // peak dynamic memory footprint

  // As a uniform double vector, in the order {energy, time, accesses,
  // footprint}; used by the Pareto machinery. All metrics are
  // smaller-is-better.
  std::array<double, 4> as_array() const noexcept {
    return {energy_mj, time_s, static_cast<double>(accesses),
            static_cast<double>(footprint_bytes)};
  }
};

inline constexpr std::size_t kMetricCount = 4;
inline constexpr std::array<const char*, kMetricCount> kMetricNames = {
    "energy_mJ", "time_s", "accesses", "footprint_B"};

// Index into kMetricNames of a metric name, also accepting the short
// aliases energy|time|accesses|footprint; nullopt for anything else. The
// one metric vocabulary of `ddtr pareto`, `ddtr submit` and the daemon.
std::optional<std::size_t> metric_index(std::string_view name) noexcept;

// True if `a` dominates `b`: no metric worse, at least one strictly better.
bool dominates(const Metrics& a, const Metrics& b) noexcept;

// The same over as_array() vectors, for callers that compare many pairs.
inline bool dominates(const std::array<double, kMetricCount>& a,
                      const std::array<double, kMetricCount>& b) noexcept {
  bool strictly_better = false;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace ddtr::energy

