// The benchmark's workloads and the layer measurements taken in a traced
// run. A workload owns its inputs (studies built from the seed) and
// its warm state; the runner in main.cc repeats set-up, then runs units in
// a closed loop — one caller, the next unit only after the previous one
// returned — and, in a traced run, alternates untraced and traced units
// before calling the probes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "core/simulation_cache.h"
#include "energy/energy_model.h"
#include "measure.h"

namespace perfbench {

// The four registered paper workloads, in registry order.
inline const std::vector<std::string> kApps = {"route", "url", "ipchains",
                                               "drr"};

struct UnitOutcome {
  // Percentile group: the index of the study the unit explored.
  // Percentiles are taken per study, then averaged over the studies.
  std::size_t mode = 0;
  double ms = 0.0;
  // Empty when every output check passed.
  std::string failure;
  // Executed simulations per app.
  std::map<std::string, std::uint64_t> executed;
};

// Per-layer samples of a traced run, keyed by metric name.
using Samples = std::map<std::string, std::vector<double>>;

// One exploration composed from the engine's public step methods, in the
// order ExplorationEngine::explore runs them.
struct Composed {
  std::string app;
  const ddtr::core::CaseStudy* study = nullptr;
  std::unique_ptr<ddtr::core::SimulationCache> cache;
  std::vector<ddtr::core::SimulationRecord> step1;
  std::vector<ddtr::core::SimulationRecord> step2;
  std::string records;  // serialized_records() of the composed report
  bool persistent = false;
  std::size_t loaded = 0;
  std::size_t stored = 0;
  std::uintmax_t file_bytes = 0;
};

// State of a traced run.
struct Traced {
  explicit Traced(ddtr::obs::TraceWriter* writer) : clock(writer) {}

  LayerClock clock;
  // Samples from traced units, and from probes; a metric is taken from
  // the units when they produced it, otherwise from the probes.
  Samples units;
  Samples probes;
  // Kernel-replay oracle accounting.
  std::uint64_t replayed = 0;
  std::vector<std::string> mismatches;
  // The latest traced unit's explorations (probe and micro-timing input).
  std::vector<std::shared_ptr<Composed>> last;
  // Step-1 records per app (calibration oracle).
  std::map<std::string, std::vector<ddtr::core::SimulationRecord>> step1_of;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  std::size_t lanes() const { return lanes_; }
  std::size_t min_units() const { return min_units_; }
  // CaseStudyOptions::seed_offset of every study: the run's --seed.
  std::uint64_t offset() const { return offset_; }
  const std::vector<std::string>& apps() const { return apps_; }

  // Builds (or rebuilds) every input and warm state from an empty trace
  // store. Throws when an output check fails.
  virtual void setup() = 0;
  // One unit; `slot` picks the study (slot modulo their count), so a
  // traced and an untraced unit given the same slot do the same work.
  virtual UnitOutcome unit(std::size_t slot) = 0;
  virtual UnitOutcome traced_unit(std::size_t slot, Traced& traced) = 0;
  // Measures, after the timed window, every layer the workload's units do
  // not call, on the same studies.
  virtual void probe(Traced& traced);

  // Reference digest per "<app>@<seed offset>", for printing.
  const std::map<std::string, std::uint64_t>& digests() const {
    return references_;
  }
  const ddtr::energy::EnergyModel& model() const { return model_; }
  // The workload's studies, in apps() order.
  const std::vector<ddtr::core::CaseStudy>& studies() const {
    return studies_;
  }

 protected:
  Workload(std::string name, std::vector<std::string> apps, std::size_t lanes,
           std::size_t min_units, std::uint64_t seed);

  std::size_t app_of(std::size_t slot) const { return slot % apps_.size(); }

  // Rebuilds studies_ from an empty trace store.
  void build_studies();
  // The first digest seen for an app becomes its reference; later ones
  // must match it. Returns a failure message, or "" on a match.
  std::string check_digest(const std::string& app, std::uint64_t digest);
  // One exploration of studies_[app_index] composed from the
  // engine's public step methods, each inside a layer scope; with a
  // cache_dir it loads and stores the persistent cache around the steps.
  std::shared_ptr<Composed> compose(std::size_t app_index,
                                    const std::string& cache_dir,
                                    LayerClock& clock, const char* cat);
  // Records a composed exploration's cache counts into `samples` and
  // checks its digest; returns a failure message or "".
  std::string check_composed(const Composed& run, Samples& samples,
                             Traced& traced);
  // Moves the traced unit's layer self times into the samples, with the
  // share of the unit no layer scope covered.
  void record_traced_unit(Traced& traced);
  // Stores the latest traced explorations into a fresh directory and
  // loads them back (the persistent-cache probe); returns the directory.
  std::string pcache_probe(Traced& traced);
  // Serves the latest traced explorations from a daemon over `cache_dir`.
  void serve_probe(Traced& traced, const std::string& cache_dir);

  std::string name_;
  std::vector<std::string> apps_;
  std::size_t lanes_;
  std::size_t min_units_;
  std::uint64_t offset_;
  ddtr::energy::EnergyModel model_;
  std::vector<ddtr::core::CaseStudy> studies_;  // in apps_ order
  std::map<std::string, std::uint64_t> references_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
std::vector<std::string> workload_names();

// Layer measurements every traced run takes after its window, whatever
// the workload: trace synthesis, the kernel-replay calibration over the
// step-1 combinations of all four apps, cache-key and lookup cost, and
// energy evaluation.
void measure_shared_layers(Workload& workload, Traced& traced);

// "SLL(ARO)" -> "SLL_ARO": the DDT label as a metric-name component.
std::string kind_metric_name(const std::string& label);

}  // namespace perfbench
