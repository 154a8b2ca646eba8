// Slot composition (NetworkApplication::separable()): the explorer
// computes a separable scenario's missing records from one kernel run per
// slot kind instead of one per combination. Checked here against the slow
// oracle, core::simulate:
//  - every combination on every scenario of the four built-ins composes
//    to exactly simulate()'s counters and metrics;
//  - an app that declares separable() but breaks the contract makes
//    explore() throw, naming the app, scenario and combination;
//  - a custom workload that does not opt in runs one kernel per record;
//  - serialized_records() equals a simulate() reference across apps x
//    step-1 policy x lanes x {cold, warm, disabled} cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/ddtr.h"

namespace ddtr::core {
namespace {

const char* const kApps[] = {"route", "url", "ipchains", "drr"};

CaseStudy small_study(const std::string& app) {
  return api::registry().make_study(app, CaseStudyOptions{}.scaled(0.05));
}

void expect_same_record(const SimulationRecord& got,
                        const SimulationRecord& want) {
  const std::string where = want.app_name + " " + want.combo.label() +
                            " on " + want.scenario_label();
  EXPECT_EQ(got.counters, want.counters) << where;
  EXPECT_EQ(got.metrics.energy_mj, want.metrics.energy_mj) << where;
  EXPECT_EQ(got.metrics.time_s, want.metrics.time_s) << where;
  EXPECT_EQ(got.metrics.accesses, want.metrics.accesses) << where;
  EXPECT_EQ(got.metrics.footprint_bytes, want.metrics.footprint_bytes)
      << where;
}

// Forwards to a built-in app, optionally breaking the composition
// contract it declares, and counts its kernel runs.
class WrappedApp : public apps::NetworkApplication {
 public:
  enum class Mode {
    kForward,       // a plain separable forward
    kOpaque,        // does not opt in to composition
    kCoupledSlots,  // slot 1's charges depend on slot 0's kind
    kVaryingCpu,    // the CPU remainder depends on the combination
  };

  WrappedApp(std::shared_ptr<apps::NetworkApplication> inner, Mode mode)
      : inner_(std::move(inner)), mode_(mode) {}

  std::string name() const override { return inner_->name(); }
  std::vector<std::string> dominant_structures() const override {
    return inner_->dominant_structures();
  }
  std::vector<std::vector<ddt::DdtKind>> slot_kinds() const override {
    return inner_->slot_kinds();
  }
  std::string config_label() const override {
    return inner_->config_label();
  }
  bool separable() const override { return mode_ != Mode::kOpaque; }

  apps::RunResult run(const net::Trace& trace,
                      const ddt::DdtCombination& combo) override {
    runs_.fetch_add(1, std::memory_order_relaxed);
    apps::RunResult result = inner_->run(trace, combo);
    if (mode_ == Mode::kCoupledSlots) {
      const auto extra = static_cast<std::uint64_t>(combo[0]) + 1;
      result.per_structure[1].second.reads += extra;
      result.total.reads += extra;
    } else if (mode_ == Mode::kVaryingCpu) {
      result.total.cpu_ops += static_cast<std::uint64_t>(combo[1]);
    }
    return result;
  }

  std::size_t runs() const { return runs_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<apps::NetworkApplication> inner_;
  Mode mode_;
  std::atomic<std::size_t> runs_{0};
};

CaseStudy wrapped(CaseStudy study, WrappedApp::Mode mode) {
  std::map<apps::NetworkApplication*, std::shared_ptr<WrappedApp>> wrappers;
  for (Scenario& scenario : study.scenarios) {
    auto& wrapper = wrappers[scenario.app.get()];
    if (!wrapper) wrapper = std::make_shared<WrappedApp>(scenario.app, mode);
    scenario.app = wrapper;
  }
  return study;
}

// Kernel runs summed over the distinct wrappers of a wrapped() study.
std::size_t wrapped_runs(const CaseStudy& study) {
  std::set<const WrappedApp*> seen;
  std::size_t runs = 0;
  for (const Scenario& scenario : study.scenarios) {
    const auto* app = static_cast<const WrappedApp*>(scenario.app.get());
    if (seen.insert(app).second) runs += app->runs();
  }
  return runs;
}

TEST(Composition, EveryCombinationOnEveryScenarioEqualsSimulate) {
  const energy::EnergyModel model = make_paper_energy_model();
  for (const char* app : kApps) {
    const CaseStudy study = small_study(app);
    const CaseStudy counted = wrapped(study, WrappedApp::Mode::kForward);
    const std::vector<ddt::DdtCombination> combos =
        ddt::enumerate_combinations(study.slot_kind_sets());
    // No cache: every (scenario, combination) unit is a miss, so step 2
    // over the whole space composes every one of them.
    const ExplorationEngine engine(model);
    const std::vector<SimulationRecord> records =
        engine.run_step2(counted, combos);
    ASSERT_EQ(records.size(), combos.size() * study.scenarios.size()) << app;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Scenario& scenario = study.scenarios[i / combos.size()];
      expect_same_record(records[i],
                         simulate(scenario, combos[i % combos.size()], model));
    }
    // Per scenario: max |K_s| diagonal runs plus the guard's full run.
    std::size_t diagonals = 0;
    for (const auto& set : study.slot_kind_sets()) {
      diagonals = std::max(diagonals, set.size());
    }
    EXPECT_EQ(wrapped_runs(counted),
              study.scenarios.size() * (diagonals + 1))
        << app;
  }
}

void expect_explore_throws_naming(const CaseStudy& study,
                                  const std::string& what) {
  const ExplorationEngine engine(make_paper_energy_model());
  try {
    engine.explore(study);
    ADD_FAILURE() << "explore() accepted a broken separable() app";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("URL declares separable()"), std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
    EXPECT_NE(message.find("(scenario "), std::string::npos) << message;
    EXPECT_NE(message.find(", combination "), std::string::npos) << message;
  }
}

TEST(Composition, CoupledSlotsFailTheOffDiagonalGuard) {
  expect_explore_throws_naming(
      wrapped(small_study("url"), WrappedApp::Mode::kCoupledSlots),
      "full run differs from its per-slot composition");
}

TEST(Composition, VaryingCpuRemainderFailsTheRemainderGuard) {
  expect_explore_throws_naming(
      wrapped(small_study("url"), WrappedApp::Mode::kVaryingCpu),
      "CPU remainder differs");
}

TEST(Composition, NonSeparableWorkloadRunsOneKernelPerRecord) {
  const CaseStudy study = small_study("url");
  const ExplorationEngine engine(make_paper_energy_model());
  const ExplorationReport opaque =
      engine.explore(wrapped(study, WrappedApp::Mode::kOpaque));
  EXPECT_GT(opaque.executed_simulations(), 0u);
  EXPECT_EQ(opaque.kernel_runs, opaque.executed_simulations());

  // The built-in it wraps composes: fewer runs, the same bytes.
  const ExplorationReport composed = engine.explore(study);
  EXPECT_EQ(composed.executed_simulations(), opaque.executed_simulations());
  EXPECT_LT(composed.kernel_runs, composed.executed_simulations());
  EXPECT_EQ(composed.serialized_records(), opaque.serialized_records());
}

// The serialized records rebuilt record by record from core::simulate on
// each record's own (scenario, combination).
std::string simulate_reference(const CaseStudy& study,
                               const ExplorationReport& report) {
  const energy::EnergyModel model = make_paper_energy_model();
  std::map<std::string, const Scenario*> by_label;
  for (const Scenario& scenario : study.scenarios) {
    by_label[scenario.label()] = &scenario;
  }
  const auto rebuild = [&](const std::vector<SimulationRecord>& records) {
    std::vector<SimulationRecord> out;
    for (const SimulationRecord& r : records) {
      out.push_back(simulate(*by_label.at(r.scenario_label()), r.combo, model));
    }
    return out;
  };
  ExplorationReport reference;
  reference.step1_records = rebuild(report.step1_records);
  reference.step2_records = rebuild(report.step2_records);
  return reference.serialized_records();
}

TEST(Composition, RecordsAreByteIdenticalToSimulateAcrossTheMatrix) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("ddtr_composition_test_" + std::to_string(::getpid()));
  for (const char* app : kApps) {
    const CaseStudy study = small_study(app);
    for (const Step1Policy policy :
         {Step1Policy::kExhaustive, Step1Policy::kGreedyPerSlot}) {
      for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        const std::string dir = (root / app).string();
        fs::remove_all(dir);
        const auto run = [&] {
          api::Exploration session(study);
          session.step1_policy(policy).jobs(jobs).cache_dir(dir);
          return session.run();
        };
        // The uncached step methods: every unit simulated.
        const ExplorationReport disabled = [&] {
          ExplorationOptions options;
          options.step1_policy = policy;
          options.jobs = jobs;
          const ExplorationEngine engine(make_paper_energy_model(), options);
          ExplorationReport report;
          report.step1_records = engine.run_step1(study, nullptr);
          report.step2_records = engine.run_step2(
              study, engine.select_survivors(report.step1_records), nullptr);
          return report;
        }();
        const ExplorationReport cold = run();
        const ExplorationReport warm = run();
        const std::string context = std::string(app) +
                                    (policy == Step1Policy::kExhaustive
                                         ? " exhaustive"
                                         : " greedy") +
                                    " jobs=" + std::to_string(jobs);
        EXPECT_LT(cold.kernel_runs, cold.executed_simulations()) << context;
        EXPECT_EQ(warm.executed_simulations(), 0u) << context;
        EXPECT_EQ(warm.kernel_runs, 0u) << context;
        for (const ExplorationReport* report : {&disabled, &cold, &warm}) {
          EXPECT_EQ(report->serialized_records(),
                    simulate_reference(study, *report))
              << context;
        }
        EXPECT_EQ(cold.serialized_records(), disabled.serialized_records())
            << context;
        EXPECT_EQ(warm.serialized_records(), disabled.serialized_records())
            << context;
      }
    }
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace ddtr::core
