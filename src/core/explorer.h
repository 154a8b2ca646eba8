// The three-step DDT refinement methodology (paper §3, Figure 1):
//
//  Step 1 (application level)  — simulate every DDT combination on a
//      representative trace; keep the multi-metric non-dominated ~20%.
//  Step 2 (network level)      — simulate the survivors on every network
//      configuration (trace x application parameter).
//  Step 3 (Pareto level)       — aggregate the step-2 logs and prune to
//      the Pareto-optimal combination set handed to the designer.
//
// The engine also does the simulation-count bookkeeping reported in the
// paper's Table 1 (exhaustive vs reduced vs Pareto-optimal).
//
// Execution model: every (scenario, combination) simulation is
// independent, so steps 1 and 2 fan simulations over
// ExplorationOptions::jobs work-stealing lanes (support::ThreadPool) with
// index-addressed result slots — reports are bit-identical at every lane
// count. A fan first settles every unit the cache answers, then computes
// the misses. For a separable application (NetworkApplication::
// separable()) it runs, per scenario, max over slots of the needed kinds
// "diagonal" combinations, which cover every (slot, kind) pair, and
// composes each missing record from their per-slot profiles plus the CPU
// remainder: k runs stand in for k^slots. One off-diagonal combination
// per composed scenario also runs in full and must equal its
// composition, or the fan throws.
//
// Warm state is handed to explore(), never picked by it: one body,
// explore(study, cache, pool, persistent), runs the three steps over the
// SimulationCache, ThreadPool and optional PersistentSimulationCache its
// caller passes. The cache memoizes records so step 2 replays the
// representative scenario's survivors from step 1 instead of
// re-simulating them. explore(study) is the owning caller: it builds a
// per-run cache and a pool of ExplorationOptions::jobs lanes and, with
// ExplorationOptions::cache_dir set, a persistent cross-run cache file
// seeded into that cache by one read, so repeated invocations replay
// previous runs' simulations too. A long-lived owner (serve::Server)
// calls the body with its own cache, pool and persistent cache, so a
// repeated study replays entirely from memory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "core/simulation_cache.h"

namespace ddtr::support {
class ThreadPool;
}

namespace ddtr::obs {
class TraceWriter;
}

namespace ddtr::core {

class PersistentSimulationCache;

// How step 1 covers the combination space.
enum class Step1Policy {
  // Simulate every combination (10^slots simulations) — the paper's
  // default flow (100 simulations for two dominant structures).
  kExhaustive,
  // Explore each dominant structure independently, holding the others at
  // the SLL baseline (10 x slots simulations), then cross the per-slot
  // non-dominated kinds. Explains sub-100 "reduced" counts such as the
  // paper's DRR row (60 total simulations); exact when the slots' costs
  // are close to separable, which trace-driven kernels usually are.
  kGreedyPerSlot,
};

struct ExplorationOptions {
  // Fraction of the combination space step 1 lets through (the paper
  // observes ~20% of combinations are worth keeping).
  double survivor_cap_fraction = 0.20;
  // Per-metric champions kept unconditionally — the paper's "keep the
  // combinations which have the lowest energy consumption, shortest
  // execution time, lowest memory footprint and lower memory accesses"
  // (§3.1). The remaining cap budget is filled with the best-ranked 4-D
  // non-dominated combinations.
  std::size_t champions_per_metric = 3;
  // Followed by run_step1(), select_survivors() and explore().
  Step1Policy step1_policy = Step1Policy::kExhaustive;
  // Concurrent simulation lanes of the pool explore(study) and the step
  // methods build (the explore() body fans over the pool it is handed).
  // Every (scenario, combination) simulation is independent, so the steps
  // fan them over `jobs` lanes with index-addressed result slots — output
  // is bit-identical to jobs = 1 at any lane count. 1 = serial (no
  // threads); 0 = one lane per hardware thread.
  std::size_t jobs = 1;
  // When non-empty, explore(study) persists the simulation cache across
  // runs in this directory: seeded before step 1, extended after step 2
  // with whatever this run had to execute. Keys are content hashes
  // (trace content + energy-model fingerprint, see
  // SimulationCache::key_of), so reports stay byte-identical whether the
  // cache is warm, cold or absent — a fully warm rerun executes zero
  // simulations. Corrupt or stale cache files are ignored, not fatal.
  std::string cache_dir;
  // --- Observability (see src/obs/) -------------------------------------
  // Optional span tracer: when set, explore() emits Chrome trace_event
  // spans (step1/select/step2/aggregate, every simulation fan unit, cache
  // I/O) into this writer. Borrowed, never owned; null disables tracing.
  // Observation-only by contract: the produced records stay byte-identical
  // with or without a sink, and the sink must never feed cache keys (see
  // the determinism lint rule).
  obs::TraceWriter* trace_sink = nullptr;
};

struct ExplorationReport {
  std::string app_name;
  std::size_t combination_count = 0;
  std::size_t scenario_count = 0;
  std::size_t exhaustive_simulations = 0;
  // Logical simulation counts (the paper's Table 1 bookkeeping: one per
  // record, whether it was executed or replayed from the cache).
  std::size_t step1_simulations = 0;
  std::size_t step2_simulations = 0;
  // Records computed per step rather than replayed (cache hits excluded),
  // whether composed per slot or run in full. step2_executed_simulations
  // is one per survivor below step2_simulations on a cold run: the whole
  // representative scenario is replayed from step 1's records.
  std::size_t step1_executed_simulations = 0;
  std::size_t step2_executed_simulations = 0;
  // NetworkApplication::run calls made to compute those records: fewer
  // than the executed records when scenarios were composed.
  std::size_t kernel_runs = 0;
  // Persistent-cache accounting (0 without a persistent cache): records
  // the cache file held before the run, and new records added to it
  // afterwards.
  std::uint64_t persistent_loaded = 0;
  std::uint64_t persistent_stored = 0;

  // Step-1 design space on the representative scenario (one record per
  // combination — Figure 3a's scatter).
  std::vector<SimulationRecord> step1_records;
  // Combinations surviving the application-level filter.
  std::vector<ddt::DdtCombination> survivors;
  // Step-2 logs: survivors x scenarios.
  std::vector<SimulationRecord> step2_records;
  // Step-3 aggregation: per-survivor metrics averaged over all scenarios
  // (network field set to "<all>").
  std::vector<SimulationRecord> aggregated;
  // Indices into `aggregated` forming the final Pareto-optimal set (the
  // paper's Table 1 last column).
  std::vector<std::size_t> pareto_optimal;

  std::size_t reduced_simulations() const {
    return step1_simulations + step2_simulations;
  }
  std::size_t executed_simulations() const {
    return step1_executed_simulations + step2_executed_simulations;
  }
  // Simulation-cache accounting of this explore() call: each fan probes
  // every unit once before it computes any, so the misses are the
  // executed records and the hits the logical rest.
  std::uint64_t cache_hits() const {
    return reduced_simulations() - executed_simulations();
  }
  std::uint64_t cache_misses() const { return executed_simulations(); }
  double cache_hit_rate() const {
    return SimulationCache::Stats{cache_hits(), cache_misses()}.hit_rate();
  }
  std::vector<SimulationRecord> pareto_records() const;
  // Step-2 records belonging to one scenario label (for per-network
  // Pareto curves, Figure 4).
  std::vector<SimulationRecord> scenario_records(
      const std::string& label) const;
  // The step-1 + step-2 records as one serialized ResultLog text — the
  // single definition of "byte-identical reports" used by the
  // determinism bench and the API equivalence tests.
  std::string serialized_records() const;
};

class ExplorationEngine {
 public:
  explicit ExplorationEngine(energy::EnergyModel model);
  ExplorationEngine(energy::EnergyModel model, ExplorationOptions options);

  // Runs all three steps on a per-run cache and pool (see the file
  // comment), seeding from and storing into options().cache_dir when set.
  ExplorationReport explore(const CaseStudy& study) const;
  // Runs all three steps over the caller's warm state: records are
  // replayed from / memoized into `cache`, the steps fan over `pool`, and
  // when `persistent` is set (already seeded into `cache` by the caller)
  // this run's new records are stored into it. options().cache_dir and
  // options().jobs are not consulted. Calls sharing one `persistent` must
  // be serialized (store_new updates its key set); the file itself is
  // safe under any number of writers.
  ExplorationReport explore(const CaseStudy& study, SimulationCache& cache,
                            support::ThreadPool& pool,
                            PersistentSimulationCache* persistent) const;

  // Individual steps, exposed for tests, benches and partial reuse. Each
  // step fans its simulations over options().jobs lanes with
  // index-addressed result slots, so record order (and content) is
  // identical at every lane count. When `cache` is non-null, simulations
  // are replayed from / recorded into it. Step 1 and the survivor
  // selection follow options().step1_policy; for the greedy policy the
  // slot count is the width of the records' combinations, and survivors
  // are the per-slot non-dominated kinds crossed into combinations
  // (capped like the exhaustive selection).
  std::vector<SimulationRecord> run_step1(const CaseStudy& study,
                                          SimulationCache* cache = nullptr)
      const;
  std::vector<ddt::DdtCombination> select_survivors(
      const std::vector<SimulationRecord>& step1_records) const;
  std::vector<SimulationRecord> run_step2(
      const CaseStudy& study,
      const std::vector<ddt::DdtCombination>& survivors,
      SimulationCache* cache = nullptr) const;
  std::vector<SimulationRecord> aggregate(
      const std::vector<SimulationRecord>& step2_records) const;

  const energy::EnergyModel& model() const noexcept { return model_; }
  const ExplorationOptions& options() const noexcept { return options_; }

 private:
  // Outcome of one fan-out: one record per unit, in unit order — exactly
  // the serial output — plus the execution accounting.
  struct FanOutcome {
    std::vector<SimulationRecord> records;
    std::size_t computed = 0;     // records not replayed from the cache
    std::size_t kernel_runs = 0;  // NetworkApplication::run calls
  };

  // Pool-threaded variants used by explore(), which fans the whole
  // three-step run over ONE pool (the public step methods build a
  // transient pool).
  FanOutcome run_step1_fan(const CaseStudy& study, SimulationCache* cache,
                           support::ThreadPool& pool) const;
  FanOutcome run_step2_fan(const CaseStudy& study,
                           const std::vector<ddt::DdtCombination>& survivors,
                           SimulationCache* cache,
                           support::ThreadPool& pool) const;
  // Produces one record per (scenario, combination) unit, scenario-major
  // (unit i is scenarios[i / combos.size()] with combos[i %
  // combos.size()]), fanned over the pool, writing records into
  // index-addressed slots: cache hits first, then the misses, composed
  // per slot where the app is separable (see the file comment). Each
  // scenario's key prefix and the model's key suffix are built once per
  // fan. `step` (1 or 2) names the trace span category of the fan's `sim`
  // and `kernel` spans.
  FanOutcome fan_simulations(std::span<const Scenario> scenarios,
                             std::span<const ddt::DdtCombination> combos,
                             SimulationCache* cache, support::ThreadPool& pool,
                             int step) const;

  energy::EnergyModel model_;
  ExplorationOptions options_;
};

}  // namespace ddtr::core

