#include "core/simulation_cache.h"

#include <atomic>
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

// A key's last field and the separator before it: the model fingerprint.
void append_suffix(std::string& key, const energy::EnergyModel& model) {
  key += kSep;
  append_hex(key, model.fingerprint());
}

std::uint64_t next_cache_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
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

SimulationCache::SimulationCache() : id_(next_cache_id()) {}

std::string SimulationCache::key_of(const Scenario& scenario,
                                    const ddt::DdtCombination& combo,
                                    const energy::EnergyModel& model) {
  std::string key = key_prefix(scenario);
  combo.append_label(key);
  append_suffix(key, model);
  return key;
}

std::string SimulationCache::key_prefix(const Scenario& scenario) {
  const std::string app_name = scenario.app->name();
  std::string prefix;
  // Room for the whole key: a 32-bit version, a 64-bit hex hash, five
  // separators, then the combination label and the suffix.
  prefix.reserve(app_name.size() + scenario.config.size() + 96);
  prefix += app_name;
  prefix += kSep;
  // The app's simulation-semantics version: records persisted before a
  // workload's run() logic changed must stop hitting.
  prefix += std::to_string(scenario.app->cache_version());
  prefix += kSep;
  prefix += scenario.config;
  prefix += kSep;
  append_hex(prefix, scenario.trace->content_hash());
  prefix += kSep;
  return prefix;
}

std::string SimulationCache::key_suffix(const energy::EnergyModel& model) {
  std::string suffix;
  append_suffix(suffix, model);
  return suffix;
}

std::string SimulationCache::key_of(std::string_view prefix,
                                    const ddt::DdtCombination& combo,
                                    std::string_view suffix) {
  // Room for most combination labels.
  std::string key;
  key.reserve(prefix.size() + 32 + suffix.size());
  key += prefix;
  combo.append_label(key);
  key += suffix;
  return key;
}

std::optional<SimulationRecord> SimulationCache::find(
    const Scenario& scenario, const ddt::DdtCombination& combo,
    const energy::EnergyModel& model) {
  return find(key_of(scenario, combo, model), scenario);
}

std::optional<SimulationRecord> SimulationCache::find(
    const std::string& key, const Scenario& scenario) {
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
  insertions_ += records_.try_emplace(key, record).second;
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

std::uint64_t SimulationCache::insertions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return insertions_;
}

}  // namespace ddtr::core
