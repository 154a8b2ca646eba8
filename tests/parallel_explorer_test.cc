// Parallel exploration engine: ThreadPool/parallel_for mechanics,
// SimulationCache hit/miss accounting, and the determinism contract —
// explore() with several lanes must produce records, survivors and Pareto
// sets identical to jobs=1 on the Route, URL and DRR case studies, and the
// simulation cache must make step 2 free for the representative scenario.
// A caller that hands explore() its own cache and pool replays a warm run
// from memory, and the report's hit/miss counts are the cache's own.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/ddtr.h"
#include "core/simulation_cache.h"
#include "support/thread_pool.h"

namespace ddtr::core {
namespace {

// Short traces keep each of the ~100 step-1 simulations cheap.
CaseStudyOptions tiny_options() {
  CaseStudyOptions options;
  options.packets = 200;
  return options;
}

void expect_reports_identical(const ExplorationReport& serial,
                              const ExplorationReport& parallel) {
  // Byte-identical logs (exact doubles included)...
  EXPECT_EQ(serial.serialized_records(), parallel.serialized_records());
  // ...identical survivor combinations, in the same order...
  EXPECT_EQ(serial.survivors, parallel.survivors);
  // ...and an identical final Pareto-optimal set.
  EXPECT_EQ(serial.pareto_optimal, parallel.pareto_optimal);
  EXPECT_EQ(serial.step1_simulations, parallel.step1_simulations);
  EXPECT_EQ(serial.step2_simulations, parallel.step2_simulations);
  ASSERT_EQ(serial.aggregated.size(), parallel.aggregated.size());
  for (std::size_t i = 0; i < serial.aggregated.size(); ++i) {
    EXPECT_EQ(serial.aggregated[i].metrics.energy_mj,
              parallel.aggregated[i].metrics.energy_mj);
    EXPECT_EQ(serial.aggregated[i].metrics.time_s,
              parallel.aggregated[i].metrics.time_s);
    EXPECT_EQ(serial.aggregated[i].metrics.accesses,
              parallel.aggregated[i].metrics.accesses);
    EXPECT_EQ(serial.aggregated[i].metrics.footprint_bytes,
              parallel.aggregated[i].metrics.footprint_bytes);
  }
}

ExplorationReport explore_with_jobs(const CaseStudy& study,
                                    std::size_t jobs) {
  ExplorationOptions options;
  options.jobs = jobs;
  const ExplorationEngine engine(make_paper_energy_model(), options);
  return engine.explore(study);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  support::parallel_for(pool, counts.size(),
                        [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<int> order;  // unsynchronized: only legal because inline
  support::parallel_for(pool, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelMapWritesIndexAddressedSlots) {
  support::ThreadPool pool(3);
  const std::vector<std::size_t> squares =
      support::parallel_map<std::size_t>(
          pool, 64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 64u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPool, PropagatesBodyException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(
      support::parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("lane failure");
                              }
                            }),
      std::runtime_error);
}

TEST(ThreadPool, ResolveJobsMapsZeroToHardware) {
  EXPECT_GE(support::ThreadPool::resolve_jobs(0), 1u);
  EXPECT_EQ(support::ThreadPool::resolve_jobs(3), 3u);
}

// What the engine does per unit: a find(), and on a miss the simulated
// record inserted under its key.
SimulationRecord find_or_simulate(SimulationCache& cache,
                                  const Scenario& scenario,
                                  const ddt::DdtCombination& combo,
                                  const energy::EnergyModel& model) {
  if (const auto hit = cache.find(scenario, combo, model)) return *hit;
  SimulationRecord record = simulate(scenario, combo, model);
  cache.insert(SimulationCache::key_of(scenario, combo, model), record);
  return record;
}

TEST(SimulationCache, CountsHitsAndMisses) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const Scenario& scenario = study.scenarios.front();
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  SimulationCache cache;
  const SimulationRecord first =
      find_or_simulate(cache, scenario, combo, model);
  const SimulationRecord second =
      find_or_simulate(cache, scenario, combo, model);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(first.metrics.energy_mj, second.metrics.energy_mj);
  EXPECT_EQ(first.metrics.accesses, second.metrics.accesses);

  // A different combination on the same scenario misses...
  const ddt::DdtCombination other({ddt::DdtKind::kDll, ddt::DdtKind::kSll});
  find_or_simulate(cache, scenario, other, model);
  EXPECT_EQ(cache.stats().misses, 2u);
  // ...and so does the same combination on a different scenario.
  find_or_simulate(cache, study.scenarios.back(), combo, model);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.25);
}

TEST(SimulationCache, FindDoesNotSimulate) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kArray});
  const energy::EnergyModel model = make_paper_energy_model();
  const Scenario& scenario = study.scenarios.front();
  SimulationCache cache;
  EXPECT_FALSE(cache.find(scenario, combo, model).has_value());
  cache.insert(SimulationCache::key_of(scenario, combo, model),
               simulate(scenario, combo, model));
  EXPECT_TRUE(cache.find(scenario, combo, model).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// Route at 2, 4 and 8 lanes: its step-1 kernels are the shortest, so the
// lanes race hardest for them.
TEST(ParallelExplorer, RouteParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("route", tiny_options());
  study.scenarios.resize(2);
  const ExplorationReport serial = explore_with_jobs(study, 1);
  for (const std::size_t jobs : {2, 4, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    expect_reports_identical(serial, explore_with_jobs(study, jobs));
  }
}

TEST(ParallelExplorer, UrlParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);  // keep the single-core test budget small
  expect_reports_identical(explore_with_jobs(study, 1),
                           explore_with_jobs(study, 4));
}

TEST(ParallelExplorer, DrrParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("drr", tiny_options());
  study.scenarios.resize(2);
  expect_reports_identical(explore_with_jobs(study, 1),
                           explore_with_jobs(study, 4));
}

TEST(ParallelExplorer, GreedyPolicyParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);
  ExplorationOptions options;
  options.step1_policy = Step1Policy::kGreedyPerSlot;
  options.jobs = 1;
  const ExplorationEngine serial(make_paper_energy_model(), options);
  options.jobs = 4;
  const ExplorationEngine parallel(make_paper_energy_model(), options);
  expect_reports_identical(serial.explore(study), parallel.explore(study));
}

TEST(ParallelExplorer, CacheMakesRepresentativeScenarioFreeInStep2) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);
  const ExplorationReport report = explore_with_jobs(study, 2);

  // Step 1 executed everything (empty cache)...
  EXPECT_EQ(report.step1_executed_simulations, report.step1_simulations);
  // ...but every survivor on the representative scenario is a step-1
  // replay, so step 2 only executes the OTHER scenarios' simulations.
  EXPECT_EQ(report.step2_executed_simulations,
            report.step2_simulations - report.survivors.size());
  EXPECT_GE(report.cache_hits(), report.survivors.size());
  EXPECT_LT(report.executed_simulations(), report.reduced_simulations());

  // The memoized step-2 records are still exactly the simulated ones:
  // the uncached step methods simulate every unit.
  ExplorationOptions options;
  options.jobs = 2;
  const ExplorationEngine uncached(make_paper_energy_model(), options);
  ExplorationReport raw;
  raw.step1_records = uncached.run_step1(study, nullptr);
  raw.step2_records = uncached.run_step2(
      study, uncached.select_survivors(raw.step1_records), nullptr);
  EXPECT_EQ(raw.step2_records.size(), report.step2_simulations);
  EXPECT_EQ(raw.serialized_records(), report.serialized_records());
}

TEST(ParallelExplorer, HandedCacheAndPoolReplayAWarmRunFromMemory) {
  const CaseStudy study =
      api::registry().make_study("url", CaseStudyOptions{}.scaled(0.05));
  const ExplorationEngine engine(make_paper_energy_model());
  SimulationCache cache;
  support::ThreadPool pool(2);

  const ExplorationReport cold = engine.explore(study, cache, pool, nullptr);
  const SimulationCache::Stats after_cold = cache.stats();
  const ExplorationReport warm = engine.explore(study, cache, pool, nullptr);
  EXPECT_EQ(cold.persistent_loaded, 0u);
  EXPECT_EQ(warm.persistent_loaded, 0u);
  EXPECT_GT(cold.executed_simulations(), 0u);
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.kernel_runs, 0u);
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
  // The counts a report derives from its records are what the cache
  // itself counted, run by run.
  EXPECT_EQ(after_cold.misses, cold.cache_misses());
  EXPECT_EQ(after_cold.hits, cold.cache_hits());
  EXPECT_EQ(cache.stats().misses, after_cold.misses);
  EXPECT_EQ(cache.stats().hits, after_cold.hits + warm.cache_hits());
}

}  // namespace
}  // namespace ddtr::core
