#include "core/explorer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/pareto.h"
#include "core/persistent_cache.h"
#include "core/result_log.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

namespace ddtr::core {

namespace {

// The greedy step-1 combination set: every slot SLL (the original
// NetBench implementations), followed by every single-slot variation in
// slot-major order.
std::vector<ddt::DdtCombination> greedy_step1_combos(
    const std::vector<std::vector<ddt::DdtKind>>& slot_sets) {
  const std::size_t slots = slot_sets.size();
  const std::vector<ddt::DdtKind> baseline(slots, ddt::DdtKind::kSll);
  std::vector<ddt::DdtCombination> combos;
  std::size_t variations = 0;
  for (const auto& set : slot_sets) variations += set.size();
  combos.reserve(1 + variations);
  combos.emplace_back(baseline);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    for (ddt::DdtKind kind : slot_sets[slot]) {
      if (kind == ddt::DdtKind::kSll) continue;  // already the baseline
      std::vector<ddt::DdtKind> kinds = baseline;
      kinds[slot] = kind;
      combos.emplace_back(std::move(kinds));
    }
  }
  return combos;
}

// Survivor selection for a greedy step-1 log (Step1Policy::kGreedyPerSlot);
// the slot count is the width of the log's combinations.
std::vector<ddt::DdtCombination> greedy_survivors(
    const std::vector<SimulationRecord>& step1_records, double cap_fraction) {
  if (step1_records.empty()) return {};
  const std::size_t slots = step1_records.front().combo.size();
  // Per slot, keep the kinds whose single-slot variation is 4-D
  // non-dominated among that slot's variations (the baseline record
  // participates in every slot's comparison).
  std::vector<std::vector<ddt::DdtKind>> kept_kinds(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::vector<const SimulationRecord*> slot_records;
    for (const SimulationRecord& r : step1_records) {
      // A record belongs to this slot's sweep when every other slot is
      // at the SLL baseline.
      bool belongs = true;
      for (std::size_t s = 0; s < slots; ++s) {
        if (s != slot && r.combo[s] != ddt::DdtKind::kSll) belongs = false;
      }
      if (belongs) slot_records.push_back(&r);
    }
    std::vector<energy::Metrics> points;
    points.reserve(slot_records.size());
    for (const auto* r : slot_records) points.push_back(r->metrics);
    for (std::size_t idx : pareto_filter(points)) {
      kept_kinds[slot].push_back(slot_records[idx]->combo[slot]);
    }
    if (kept_kinds[slot].empty()) {
      kept_kinds[slot].push_back(ddt::DdtKind::kSll);
    }
  }

  // Cross the per-slot keepers into full combinations.
  std::vector<ddt::DdtCombination> survivors;
  std::vector<std::size_t> digit(slots, 0);
  while (true) {
    std::vector<ddt::DdtKind> kinds(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      kinds[s] = kept_kinds[s][digit[s]];
    }
    survivors.emplace_back(std::move(kinds));
    std::size_t s = 0;
    while (s < slots && ++digit[s] == kept_kinds[s].size()) {
      digit[s] = 0;
      ++s;
    }
    if (s == slots) break;
  }
  // The cap is a fraction of the space the log swept: the product over
  // slots of the distinct kinds tried there, the SLL baseline included.
  std::size_t space = 1;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::uint32_t seen = 0;  // bit k: DdtKind k appears in this slot
    for (const SimulationRecord& r : step1_records) {
      seen |= 1u << static_cast<unsigned>(r.combo[slot]);
    }
    space *= static_cast<std::size_t>(std::popcount(seen));
  }
  const std::size_t cap = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(
             cap_fraction * static_cast<double>(space))));
  if (survivors.size() > cap) survivors.resize(cap);
  return survivors;
}

// --- Slot composition (NetworkApplication::separable()) -----------------
//
// One scenario's missing units within a fan, and how they are computed.
// A composed group runs D = max_s |K_s| "diagonal" combinations (diagonal
// d puts K_s[min(d, |K_s| - 1)] on slot s), which together cover every
// (slot, kind) pair the misses need, plus one off-diagonal guard
// combination in full. A monolithic group runs every unit in full.
struct MissGroup {
  const Scenario* scenario = nullptr;
  std::vector<std::size_t> units;  // unit indices, in unit order
  bool composed = false;
  std::vector<std::vector<ddt::DdtKind>> kinds;  // K_s, first-seen order
  std::vector<ddt::DdtCombination> diagonals;    // D of them
  std::size_t guard = 0;                         // unit index run in full
  std::size_t first_job = 0;  // kernel jobs: D diagonals, then the guard
  // From the kernel runs: profiles[s][j] is slot s holding kinds[s][j].
  std::vector<std::vector<prof::ProfileCounters>> profiles;
  prof::ProfileCounters remainder;
  prof::ProfileCounters guard_total;
};

// One NetworkApplication::run of a fan. A job with a unit produces that
// unit's record itself (monolithic); a job without one feeds its group.
struct KernelJob {
  const Scenario* scenario = nullptr;
  ddt::DdtCombination combo;
  std::size_t unit = kNoUnit;
  static constexpr std::size_t kNoUnit = static_cast<std::size_t>(-1);
};

std::size_t kind_index(const std::vector<ddt::DdtKind>& kinds,
                       ddt::DdtKind kind) {
  return static_cast<std::size_t>(
      std::find(kinds.begin(), kinds.end(), kind) - kinds.begin());
}

// Decides whether `group` is composed and, if so, fills in its plan:
// composition needs D + 1 runs, so it pays only with more misses than
// that, and it needs an off-diagonal unit for the guard.
void plan_group(MissGroup& group,
                const std::function<const ddt::DdtCombination&(std::size_t)>&
                    combo_of) {
  if (!group.scenario->app->separable()) return;
  const std::size_t slots = combo_of(group.units.front()).size();
  std::vector<std::vector<ddt::DdtKind>> kinds(slots);
  std::size_t d_count = 0;
  for (std::size_t unit : group.units) {
    const ddt::DdtCombination& combo = combo_of(unit);
    for (std::size_t s = 0; s < slots; ++s) {
      if (kind_index(kinds[s], combo[s]) == kinds[s].size()) {
        kinds[s].push_back(combo[s]);
        d_count = std::max(d_count, kinds[s].size());
      }
    }
  }
  if (d_count == 0 || d_count + 1 >= group.units.size()) return;
  std::vector<ddt::DdtCombination> diagonals;
  for (std::size_t d = 0; d < d_count; ++d) {
    std::vector<ddt::DdtKind> combo;
    for (const auto& set : kinds) {
      combo.push_back(set[std::min(d, set.size() - 1)]);
    }
    diagonals.emplace_back(std::move(combo));
  }
  for (std::size_t unit : group.units) {
    if (std::find(diagonals.begin(), diagonals.end(), combo_of(unit)) !=
        diagonals.end()) {
      continue;
    }
    group.composed = true;
    group.kinds = std::move(kinds);
    group.diagonals = std::move(diagonals);
    group.guard = unit;
    return;
  }
}

prof::ProfileCounters compose(const MissGroup& group,
                              const ddt::DdtCombination& combo) {
  prof::ProfileCounters counters = group.remainder;
  for (std::size_t s = 0; s < group.kinds.size(); ++s) {
    counters += group.profiles[s][kind_index(group.kinds[s], combo[s])];
  }
  return counters;
}

[[noreturn]] void throw_not_separable(const Scenario& scenario,
                                      const ddt::DdtCombination& combo,
                                      const std::string& what) {
  throw std::runtime_error(
      "ExplorationEngine: " + scenario.app->name() +
      " declares separable() but " + what + " (scenario " + scenario.label() +
      ", combination " + combo.label() + ")");
}

// Reads a composed group's kernel runs (runs[first_job..], in job order)
// into its slot profiles and CPU remainder, then applies both guards:
// every diagonal must leave the same remainder, and the guard
// combination's full run must equal its composition. Throws naming the
// app, scenario and combination otherwise.
void harvest(MissGroup& group, const apps::RunResult* runs,
             const ddt::DdtCombination& guard_combo) {
  const std::size_t slots = group.kinds.size();
  for (std::size_t d = 0; d < group.diagonals.size(); ++d) {
    if (runs[d].per_structure.size() != slots) {
      throw_not_separable(*group.scenario, group.diagonals[d],
                          "its run reports " +
                              std::to_string(runs[d].per_structure.size()) +
                              " per-structure profiles for " +
                              std::to_string(slots) + " slots");
    }
    prof::ProfileCounters remainder = runs[d].total;
    for (const auto& part : runs[d].per_structure) remainder -= part.second;
    if (d == 0) {
      group.remainder = remainder;
    } else if (!(remainder == group.remainder)) {
      throw_not_separable(*group.scenario, group.diagonals[d],
                          "its CPU remainder differs from " +
                              group.diagonals[0].label() + "'s");
    }
  }
  // Diagonal j holds kinds[s][j] on every slot s with more than j kinds.
  group.profiles.assign(slots, {});
  for (std::size_t s = 0; s < slots; ++s) {
    for (std::size_t j = 0; j < group.kinds[s].size(); ++j) {
      group.profiles[s].push_back(runs[j].per_structure[s].second);
    }
  }
  group.guard_total = runs[group.diagonals.size()].total;
  if (!(compose(group, guard_combo) == group.guard_total)) {
    throw_not_separable(*group.scenario, guard_combo,
                        "its full run differs from its per-slot composition");
  }
}

}  // namespace

std::vector<SimulationRecord> ExplorationReport::pareto_records() const {
  std::vector<SimulationRecord> out;
  out.reserve(pareto_optimal.size());
  for (std::size_t idx : pareto_optimal) out.push_back(aggregated[idx]);
  return out;
}

std::vector<SimulationRecord> ExplorationReport::scenario_records(
    const std::string& label) const {
  std::vector<SimulationRecord> out;
  for (const SimulationRecord& r : step2_records) {
    if (r.scenario_label() == label) out.push_back(r);
  }
  return out;
}

std::string ExplorationReport::serialized_records() const {
  return ResultLog::render({step1_records, step2_records});
}

ExplorationEngine::ExplorationEngine(energy::EnergyModel model)
    : ExplorationEngine(std::move(model), ExplorationOptions{}) {}

ExplorationEngine::ExplorationEngine(energy::EnergyModel model,
                                     ExplorationOptions options)
    : model_(std::move(model)), options_(options) {}

ExplorationEngine::FanOutcome ExplorationEngine::fan_simulations(
    std::span<const Scenario> scenarios,
    std::span<const ddt::DdtCombination> combos, SimulationCache* cache,
    support::ThreadPool& pool, int step) const {
  // Per-record observability: a `sim` span per computed record (arg
  // `composed`), a `kernel` span per NetworkApplication::run (args app,
  // scenario and combination, built only when a sink is attached). Pure
  // observation: spans never touch the produced records.
  const char* const cat = step == 1 ? "step1" : "step2";

  const std::size_t count = scenarios.size() * combos.size();
  const auto scenario_of = [&](std::size_t i) -> const Scenario& {
    return scenarios[i / combos.size()];
  };
  const auto combo_of = [&](std::size_t i) -> const ddt::DdtCombination& {
    return combos[i % combos.size()];
  };
  // A unit's cache key: only the combination label is appended per unit.
  std::vector<std::string> key_prefixes;
  std::string key_suffix;
  if (cache) {
    for (const Scenario& scenario : scenarios) {
      key_prefixes.push_back(SimulationCache::key_prefix(scenario));
    }
    key_suffix = SimulationCache::key_suffix(model_);
  }
  const auto key_of = [&](std::size_t i) {
    return SimulationCache::key_of(key_prefixes[i / combos.size()],
                                   combo_of(i), key_suffix);
  };

  // Index-addressed slots: lane scheduling cannot affect record order, so
  // the parallel output is bit-identical to the serial one.
  std::vector<SimulationRecord> slots(count);
  std::vector<unsigned char> missing(count, 0);
  std::atomic<std::size_t> computed{0};
  std::atomic<std::size_t> kernel_runs{0};
  // Stores a computed record: into its slot and, so the cache stats, the
  // executed counts and the persistent file see it, into the cache.
  const auto produce = [&](std::size_t i, SimulationRecord record) {
    if (cache) cache->insert(key_of(i), record);
    slots[i] = std::move(record);
    computed.fetch_add(1, std::memory_order_relaxed);
  };
  const auto run_kernel = [&](const Scenario& scenario,
                              const ddt::DdtCombination& combo) {
    obs::SpanScope span(options_.trace_sink, "kernel", cat);
    if (options_.trace_sink != nullptr) {
      span.arg("app", scenario.app->name())
          .arg("scenario", scenario.label())
          .arg("combination", combo.label());
    }
    kernel_runs.fetch_add(1, std::memory_order_relaxed);
    return scenario.app->run(*scenario.trace, combo);
  };

  // Pass 1: settle every unit the cache answers; the rest are misses.
  support::parallel_for(pool, count, [&](std::size_t i) {
    std::optional<SimulationRecord> hit;
    if (cache) hit = cache->find(key_of(i), scenario_of(i));
    if (!hit) {
      missing[i] = 1;
      return;
    }
    slots[i] = std::move(*hit);
  });

  // Pass 2: plan the misses per scenario, in unit order.
  std::vector<MissGroup> groups;
  {
    std::map<const Scenario*, std::size_t> group_of;
    for (std::size_t i = 0; i < count; ++i) {
      if (!missing[i]) continue;
      const Scenario* scenario = &scenario_of(i);
      const auto [it, fresh] = group_of.try_emplace(scenario, groups.size());
      if (fresh) groups.emplace_back().scenario = scenario;
      groups[it->second].units.push_back(i);
    }
  }
  std::vector<KernelJob> jobs;
  for (MissGroup& group : groups) {
    plan_group(group, combo_of);
    if (!group.composed) {
      for (std::size_t unit : group.units) {
        jobs.push_back({group.scenario, combo_of(unit), unit});
      }
      continue;
    }
    group.first_job = jobs.size();
    for (const ddt::DdtCombination& combo : group.diagonals) {
      jobs.push_back({group.scenario, combo, KernelJob::kNoUnit});
    }
    jobs.push_back({group.scenario, combo_of(group.guard), KernelJob::kNoUnit});
  }

  // Pass 3: every kernel run of the fan — all scenarios' diagonals and
  // guards, and the monolithic units, which produce their records here.
  std::vector<apps::RunResult> runs(jobs.size());
  support::parallel_for(pool, jobs.size(), [&](std::size_t j) {
    const KernelJob& job = jobs[j];
    const Scenario& scenario = *job.scenario;
    if (job.unit == KernelJob::kNoUnit) {
      runs[j] = run_kernel(scenario, job.combo);
    } else {
      obs::SpanScope span(options_.trace_sink, "sim", cat);
      span.arg("composed", std::uint64_t{0});
      produce(job.unit, record_of(scenario, job.combo,
                                  run_kernel(scenario, job.combo).total,
                                  model_));
    }
  });

  // Pass 4: check and compose.
  std::vector<std::pair<std::size_t, const MissGroup*>> composed_units;
  for (MissGroup& group : groups) {
    if (!group.composed) continue;
    harvest(group, &runs[group.first_job], combo_of(group.guard));
    for (std::size_t unit : group.units) {
      composed_units.emplace_back(unit, &group);
    }
  }
  support::parallel_for(pool, composed_units.size(), [&](std::size_t k) {
    const auto [i, group_ptr] = composed_units[k];
    const MissGroup& group = *group_ptr;
    // The guard's full run becomes its record (equal to its composition).
    const bool guard = i == group.guard;
    obs::SpanScope span(options_.trace_sink, "sim", cat);
    span.arg("composed", std::uint64_t{guard ? 0u : 1u});
    const ddt::DdtCombination& combo = combo_of(i);
    produce(i, record_of(*group.scenario, combo,
                         guard ? group.guard_total : compose(group, combo),
                         model_));
  });

  FanOutcome out;
  out.records = std::move(slots);
  out.computed = computed.load(std::memory_order_relaxed);
  out.kernel_runs = kernel_runs.load(std::memory_order_relaxed);
  return out;
}

std::vector<SimulationRecord> ExplorationEngine::run_step1(
    const CaseStudy& study, SimulationCache* cache) const {
  support::ThreadPool pool(options_.jobs);
  return run_step1_fan(study, cache, pool).records;
}

ExplorationEngine::FanOutcome ExplorationEngine::run_step1_fan(
    const CaseStudy& study, SimulationCache* cache,
    support::ThreadPool& pool) const {
  const Scenario& scenario = study.scenarios.at(study.representative);
  const std::vector<ddt::DdtCombination> combos =
      options_.step1_policy == Step1Policy::kGreedyPerSlot
          ? greedy_step1_combos(study.slot_kind_sets())
          : ddt::enumerate_combinations(study.slot_kind_sets());
  return fan_simulations(std::span(&scenario, 1), combos, cache, pool, 1);
}

std::vector<ddt::DdtCombination> ExplorationEngine::select_survivors(
    const std::vector<SimulationRecord>& step1_records) const {
  if (options_.step1_policy == Step1Policy::kGreedyPerSlot) {
    return greedy_survivors(step1_records, options_.survivor_cap_fraction);
  }
  // Each record's metric vector, built once for every comparison below.
  std::vector<energy::Metrics> points;
  std::vector<std::array<double, energy::kMetricCount>> values;
  points.reserve(step1_records.size());
  values.reserve(step1_records.size());
  for (const SimulationRecord& r : step1_records) {
    points.push_back(r.metrics);
    values.push_back(r.metrics.as_array());
  }

  const std::size_t cap = std::max<std::size_t>(
      4 * options_.champions_per_metric,
      static_cast<std::size_t>(
          std::llround(options_.survivor_cap_fraction *
                       static_cast<double>(step1_records.size()))));

  std::vector<bool> selected(points.size(), false);
  std::vector<std::size_t> keep;
  const auto select = [&](std::size_t idx) {
    if (!selected[idx]) {
      selected[idx] = true;
      keep.push_back(idx);
    }
  };

  // Per-metric champions first (the paper's explicit selection rule).
  std::vector<std::size_t> order(points.size());
  for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return values[a][m] < values[b][m];
    });
    for (std::size_t k = 0;
         k < options_.champions_per_metric && k < order.size(); ++k) {
      select(order[k]);
    }
  }

  // Fill the remaining budget with the best-ranked non-dominated points
  // (rank: sum over metrics of the ratio to the best observed value).
  std::vector<std::size_t> pareto = pareto_filter(points);
  std::array<double, energy::kMetricCount> best;
  best.fill(std::numeric_limits<double>::infinity());
  for (const auto& v : values) {
    for (std::size_t m = 0; m < v.size(); ++m) {
      best[m] = std::min(best[m], v[m]);
    }
  }
  const auto score = [&](std::size_t idx) {
    const auto& v = values[idx];
    double s = 0.0;
    for (std::size_t m = 0; m < v.size(); ++m) {
      s += best[m] > 0.0 ? v[m] / best[m] : v[m];
    }
    return s;
  };
  std::sort(pareto.begin(), pareto.end(),
            [&](std::size_t a, std::size_t b) { return score(a) < score(b); });
  for (std::size_t idx : pareto) {
    if (keep.size() >= cap) break;
    select(idx);
  }

  std::vector<ddt::DdtCombination> survivors;
  survivors.reserve(keep.size());
  for (std::size_t idx : keep) survivors.push_back(step1_records[idx].combo);
  return survivors;
}

std::vector<SimulationRecord> ExplorationEngine::run_step2(
    const CaseStudy& study, const std::vector<ddt::DdtCombination>& survivors,
    SimulationCache* cache) const {
  support::ThreadPool pool(options_.jobs);
  return run_step2_fan(study, survivors, cache, pool).records;
}

ExplorationEngine::FanOutcome ExplorationEngine::run_step2_fan(
    const CaseStudy& study, const std::vector<ddt::DdtCombination>& survivors,
    SimulationCache* cache, support::ThreadPool& pool) const {
  // Every (scenario, survivor) pair, scenario-major — the serial
  // iteration order — fanned over the pool.
  return fan_simulations(study.scenarios, survivors, cache, pool, 2);
}

std::vector<SimulationRecord> ExplorationEngine::aggregate(
    const std::vector<SimulationRecord>& step2_records) const {
  // Group by combination, preserving first-seen order. A study has a few
  // dozen survivors, so a scan of the groups found so far beats hashing.
  std::vector<SimulationRecord> aggregated;
  std::vector<std::size_t> count_of;
  for (const SimulationRecord& r : step2_records) {
    const auto found =
        std::find_if(aggregated.begin(), aggregated.end(),
                     [&](const SimulationRecord& agg) {
                       return agg.combo == r.combo;
                     });
    const auto idx = static_cast<std::size_t>(found - aggregated.begin());
    if (found == aggregated.end()) {
      SimulationRecord& agg = aggregated.emplace_back();
      agg.app_name = r.app_name;
      agg.combo = r.combo;
      agg.network = "<all>";
      count_of.push_back(0);
    }
    energy::Metrics& m = aggregated[idx].metrics;
    m.energy_mj += r.metrics.energy_mj;
    m.time_s += r.metrics.time_s;
    m.accesses += r.metrics.accesses;
    m.footprint_bytes += r.metrics.footprint_bytes;
    ++count_of[idx];
  }
  for (std::size_t idx = 0; idx < aggregated.size(); ++idx) {
    const double n = static_cast<double>(count_of[idx]);
    energy::Metrics& m = aggregated[idx].metrics;
    m.energy_mj /= n;
    m.time_s /= n;
    m.accesses = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(m.accesses) / n));
    m.footprint_bytes = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(m.footprint_bytes) / n));
  }
  return aggregated;
}

ExplorationReport ExplorationEngine::explore(const CaseStudy& study) const {
  SimulationCache cache;
  support::ThreadPool pool(options_.jobs);
  // Cross-run persistence: one read of the cache file seeds the cache up
  // front; the body stores the run's new records. Content-hash keys keep
  // this invisible in the records — warm, cold or absent, the report
  // bytes are identical; only the executed counts change.
  std::optional<PersistentSimulationCache> persistent;
  if (!options_.cache_dir.empty()) {
    obs::SpanScope load_span(options_.trace_sink, "cache.load", "cache");
    const std::size_t seeded =
        persistent.emplace(options_.cache_dir).seed(cache);
    load_span.arg("records", seeded);
  }
  return explore(study, cache, pool, persistent ? &*persistent : nullptr);
}

ExplorationReport ExplorationEngine::explore(
    const CaseStudy& study, SimulationCache& cache, support::ThreadPool& pool,
    PersistentSimulationCache* persistent) const {
  ExplorationReport report;
  report.app_name = study.name;
  report.combination_count = study.combination_count();
  report.scenario_count = study.scenarios.size();
  report.exhaustive_simulations = study.exhaustive_simulations();
  if (persistent) report.persistent_loaded = persistent->loaded_count();

  // Whole-run span; phase spans (step1, select, step2, cache.store,
  // aggregate) nest inside it. All tracing is null-checked through
  // SpanScope, so the untraced path pays nothing.
  obs::SpanScope explore_span(options_.trace_sink, "explore", "explore");

  FanOutcome step1 = [&] {
    obs::SpanScope span(options_.trace_sink, "step1", "explore");
    FanOutcome out = run_step1_fan(study, &cache, pool);
    span.arg("records", out.records.size());
    return out;
  }();
  report.step1_records = std::move(step1.records);
  {
    obs::SpanScope select_span(options_.trace_sink, "select", "explore");
    report.survivors = select_survivors(report.step1_records);
    select_span.arg("candidates", report.step1_records.size())
        .arg("survivors", report.survivors.size());
  }
  report.step1_simulations = report.step1_records.size();
  report.step1_executed_simulations = step1.computed;

  FanOutcome step2 = [&] {
    obs::SpanScope span(options_.trace_sink, "step2", "explore");
    FanOutcome out = run_step2_fan(study, report.survivors, &cache, pool);
    span.arg("records", out.records.size());
    return out;
  }();
  report.step2_records = std::move(step2.records);
  report.step2_simulations = report.step2_records.size();
  report.step2_executed_simulations = step2.computed;
  report.kernel_runs = step1.kernel_runs + step2.kernel_runs;

  if (persistent) {
    obs::SpanScope store_span(options_.trace_sink, "cache.store", "cache");
    report.persistent_stored = persistent->store_new(cache);
    store_span.arg("stored", report.persistent_stored);
  }

  {
    obs::SpanScope agg_span(options_.trace_sink, "aggregate", "explore");
    report.aggregated = aggregate(report.step2_records);
    std::vector<energy::Metrics> points;
    points.reserve(report.aggregated.size());
    for (const SimulationRecord& r : report.aggregated) {
      points.push_back(r.metrics);
    }
    report.pareto_optimal = pareto_filter(points);
    agg_span.arg("aggregated", report.aggregated.size())
        .arg("pareto", report.pareto_optimal.size());
  }
  return report;
}

}  // namespace ddtr::core
