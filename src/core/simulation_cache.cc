#include "core/simulation_cache.h"

#include <charconv>

namespace ddtr::core {

namespace {

constexpr char kSep = '\x1f';  // unit separator: absent from every field

// Appends `v` in lowercase hex without a prefix — the persisted key
// format. std::to_chars ignores the global locale, so keys cannot pick up
// digit grouping from it.
void append_hex(std::string& out, std::uint64_t v) {
  char buf[16];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out.append(buf, result.ptr);
}

// Rewrites a cached record's request-scoped labels (see key_of: network
// identity is the trace content hash, not the network name, so a hit may
// originate from a scenario with a different label).
SimulationRecord relabel(SimulationRecord record, const Scenario& scenario) {
  record.network = scenario.network;
  record.config = scenario.config;
  return record;
}

}  // namespace

std::string SimulationCache::key_of(const Scenario& scenario,
                                    const ddt::DdtCombination& combo,
                                    const energy::EnergyModel& model) {
  const std::string app_name = scenario.app->name();
  const std::string combo_label = combo.label();
  // Five separators, a 32-bit version and two 64-bit hex fields fit in 48.
  std::string key;
  key.reserve(app_name.size() + scenario.config.size() + combo_label.size() +
              48);
  key += app_name;
  key += kSep;
  // The app's simulation-semantics version: records persisted before a
  // workload's run() logic changed must stop hitting.
  key += std::to_string(scenario.app->cache_version());
  key += kSep;
  key += scenario.config;
  key += kSep;
  append_hex(key, scenario.trace->content_hash());
  key += kSep;
  key += combo_label;
  key += kSep;
  append_hex(key, model.fingerprint());
  return key;
}

std::optional<SimulationRecord> SimulationCache::find(
    const Scenario& scenario, const ddt::DdtCombination& combo,
    const energy::EnergyModel& model) {
  const std::string key = key_of(scenario, combo, model);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(key);
  if (it == records_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return relabel(it->second, scenario);
}

void SimulationCache::insert(const std::string& key,
                             const SimulationRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.try_emplace(key, record);
}

std::vector<std::pair<std::string, SimulationRecord>> SimulationCache::entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, SimulationRecord>> out;
  out.reserve(records_.size());
  for (const auto& [key, record] : records_) out.emplace_back(key, record);
  return out;
}

std::vector<std::pair<std::string, SimulationRecord>>
SimulationCache::entries_missing_from(
    const std::unordered_set<std::string>& known) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, SimulationRecord>> out;
  for (const auto& [key, record] : records_) {
    if (!known.contains(key)) out.emplace_back(key, record);
  }
  return out;
}

std::size_t SimulationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

SimulationCache::Stats SimulationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ddtr::core
