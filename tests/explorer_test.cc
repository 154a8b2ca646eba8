// Exploration-engine tests on a deliberately small case study: step
// mechanics, survivor capping, aggregation arithmetic, report bookkeeping;
// and, on the four built-ins, the fans' cache keys against key_of.
#include <gtest/gtest.h>

#include "api/ddtr.h"
#include "comma_locale.h"
#include "apps/url/url_app.h"
#include "core/case_studies.h"
#include "core/explorer.h"
#include "core/report.h"
#include "nettrace/generator.h"
#include "nettrace/presets.h"
#include "support/thread_pool.h"

#include <map>
#include <sstream>
#include <string>

namespace ddtr::core {
namespace {

CaseStudy tiny_url_study(std::size_t scenario_count = 2,
                         std::size_t packets = 600) {
  CaseStudy study;
  study.name = "URL";
  const std::vector<std::string> presets = {"dart-berry", "dart-sudikoff",
                                            "dart-whittemore"};
  for (std::size_t i = 0; i < scenario_count; ++i) {
    net::TraceGenerator::Options options;
    options.packet_count = packets;
    Scenario scenario;
    scenario.network = presets[i % presets.size()];
    scenario.trace = std::make_shared<const net::Trace>(
        net::TraceGenerator::generate(net::network_preset(scenario.network),
                                      options));
    scenario.app = std::make_shared<apps::url::UrlApp>(
        apps::url::UrlApp::Config{16, 8, 8101});
    study.scenarios.push_back(std::move(scenario));
  }
  return study;
}

energy::EnergyModel model() { return make_paper_energy_model(); }

ExplorationOptions greedy_options() {
  ExplorationOptions options;
  options.step1_policy = Step1Policy::kGreedyPerSlot;
  return options;
}

TEST(Simulate, ProducesPopulatedRecord) {
  const CaseStudy study = tiny_url_study(1);
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});
  const SimulationRecord record =
      simulate(study.scenarios[0], combo, model());
  EXPECT_EQ(record.app_name, "URL");
  EXPECT_EQ(record.combo.label(), "AR+SLL");
  EXPECT_EQ(record.network, "dart-berry");
  EXPECT_GT(record.metrics.accesses, 0u);
  EXPECT_GT(record.metrics.energy_mj, 0.0);
  EXPECT_GT(record.metrics.footprint_bytes, 0u);
}

TEST(Simulate, Deterministic) {
  const CaseStudy study = tiny_url_study(1);
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kDllRoving, ddt::DdtKind::kArray});
  const auto a = simulate(study.scenarios[0], combo, model());
  const auto b = simulate(study.scenarios[0], combo, model());
  EXPECT_EQ(a.metrics.accesses, b.metrics.accesses);
  EXPECT_EQ(a.metrics.energy_mj, b.metrics.energy_mj);
  EXPECT_EQ(a.metrics.footprint_bytes, b.metrics.footprint_bytes);
}

TEST(CaseStudyCounts, CombinationArithmetic) {
  const CaseStudy study = tiny_url_study(3);
  EXPECT_EQ(study.combination_count(), 121u);  // 11 unkeyed kinds per slot
  EXPECT_EQ(study.exhaustive_simulations(), 363u);
}

TEST(Explorer, Step1CoversFullFactorialSpace) {
  const ExplorationEngine engine(model());
  const CaseStudy study = tiny_url_study(1, 300);
  const auto records = engine.run_step1(study);
  ASSERT_EQ(records.size(), 121u);
  std::set<std::string> labels;
  for (const auto& r : records) labels.insert(r.combo.label());
  EXPECT_EQ(labels.size(), 121u);
}

TEST(Explorer, SurvivorsRespectCapAndAreNonDominatedSubset) {
  const ExplorationEngine engine(model());
  const CaseStudy study = tiny_url_study(1, 300);
  const auto records = engine.run_step1(study);
  const auto survivors = engine.select_survivors(records);
  EXPECT_GE(survivors.size(), 1u);
  EXPECT_LE(survivors.size(), 24u);  // 20% of 121
}

TEST(Explorer, SurvivorCapConfigurable) {
  ExplorationOptions options;
  options.survivor_cap_fraction = 0.05;
  options.champions_per_metric = 1;
  const ExplorationEngine engine(model(), options);
  const CaseStudy study = tiny_url_study(1, 300);
  const auto survivors = engine.select_survivors(engine.run_step1(study));
  EXPECT_LE(survivors.size(), 6u);  // ceil-rounded 5% of 121
}

TEST(Explorer, GreedyStep1CostsTenPerSlot) {
  const ExplorationEngine engine(model(), greedy_options());
  const CaseStudy study = tiny_url_study(1, 300);
  const auto records = engine.run_step1(study);
  // Baseline + 10 non-baseline kinds per slot.
  EXPECT_EQ(records.size(), 1u + 2u * 10u);
}

TEST(Explorer, GreedySurvivorsAreCrossOfPerSlotKeepers) {
  const ExplorationEngine engine(model(), greedy_options());
  const CaseStudy study = tiny_url_study(1, 300);
  const auto records = engine.run_step1(study);
  const auto survivors = engine.select_survivors(records);
  EXPECT_GE(survivors.size(), 1u);
  EXPECT_LE(survivors.size(), 20u);
  for (const auto& combo : survivors) EXPECT_EQ(combo.size(), 2u);
}

TEST(Explorer, GreedySurvivorCapIsAFractionOfTheSweptSpace) {
  // A synthetic greedy log over two unkeyed slots: the SLL baseline plus
  // each slot's 10 variations. Every kind trades energy against time, so
  // all 11 are non-dominated per slot and the cross holds 121
  // combinations. 5% of the 11 x 11 space is 6, not 5 (5% of 100).
  const std::vector<ddt::DdtKind> kinds = ddt::default_slot_kinds();
  const auto record = [&](std::size_t slot, std::size_t k) {
    SimulationRecord r;
    std::vector<ddt::DdtKind> combo(2, ddt::DdtKind::kSll);
    combo[slot] = kinds[k];
    r.combo = ddt::DdtCombination(combo);
    r.metrics.energy_mj = static_cast<double>(k);
    r.metrics.time_s = static_cast<double>(kinds.size() - k);
    return r;
  };
  std::vector<SimulationRecord> log;
  for (std::size_t slot = 0; slot < 2; ++slot) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      if (slot == 1 && kinds[k] == ddt::DdtKind::kSll) continue;
      log.push_back(record(slot, k));
    }
  }
  ASSERT_EQ(log.size(), 1u + 2u * 10u);

  ExplorationOptions options = greedy_options();
  options.survivor_cap_fraction = 0.05;
  const ExplorationEngine engine(model(), options);
  EXPECT_EQ(engine.select_survivors(log).size(), 6u);
}

TEST(Explorer, GreedyPolicyReducesStep1Simulations) {
  ExplorationOptions options;
  options.step1_policy = Step1Policy::kGreedyPerSlot;
  const ExplorationEngine greedy(model(), options);
  const ExplorationEngine exhaustive(model());
  const CaseStudy study = tiny_url_study(2, 300);
  const auto greedy_report = greedy.explore(study);
  const auto full_report = exhaustive.explore(study);
  EXPECT_LT(greedy_report.step1_simulations,
            full_report.step1_simulations / 4);
  EXPECT_LT(greedy_report.reduced_simulations(),
            full_report.reduced_simulations());
  // Quality: the greedy flow's best step-2 energy is within 25% of the
  // exhaustive flow's (slots are nearly separable in these kernels).
  const auto best_energy = [](const ExplorationReport& r) {
    double best = 1e300;
    for (const auto& rec : r.step2_records) {
      best = std::min(best, rec.metrics.energy_mj);
    }
    return best;
  };
  EXPECT_LT(best_energy(greedy_report), best_energy(full_report) * 1.25);
}

TEST(Explorer, Step2RunsSurvivorsOnEveryScenario) {
  const ExplorationEngine engine(model());
  const CaseStudy study = tiny_url_study(2, 300);
  const std::vector<ddt::DdtCombination> survivors = {
      ddt::DdtCombination({ddt::DdtKind::kArray, ddt::DdtKind::kArray}),
      ddt::DdtCombination({ddt::DdtKind::kSll, ddt::DdtKind::kDll}),
  };
  const auto records = engine.run_step2(study, survivors);
  ASSERT_EQ(records.size(), 4u);
  std::set<std::string> networks;
  for (const auto& r : records) networks.insert(r.network);
  EXPECT_EQ(networks.size(), 2u);
}

TEST(Explorer, AggregateAveragesAcrossScenarios) {
  const ExplorationEngine engine(model());
  std::vector<SimulationRecord> records(2);
  records[0].combo = ddt::DdtCombination({ddt::DdtKind::kArray});
  records[0].network = "a";
  records[0].metrics = {2.0, 4.0, 100, 1000};
  records[1].combo = ddt::DdtCombination({ddt::DdtKind::kArray});
  records[1].network = "b";
  records[1].metrics = {4.0, 8.0, 300, 3000};
  const auto agg = engine.aggregate(records);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_DOUBLE_EQ(agg[0].metrics.energy_mj, 3.0);
  EXPECT_DOUBLE_EQ(agg[0].metrics.time_s, 6.0);
  EXPECT_EQ(agg[0].metrics.accesses, 200u);
  EXPECT_EQ(agg[0].metrics.footprint_bytes, 2000u);
  EXPECT_EQ(agg[0].network, "<all>");
}

TEST(Explorer, FullPipelineBookkeeping) {
  const ExplorationEngine engine(model());
  const CaseStudy study = tiny_url_study(2, 300);
  const ExplorationReport report = engine.explore(study);

  EXPECT_EQ(report.combination_count, 121u);
  EXPECT_EQ(report.scenario_count, 2u);
  EXPECT_EQ(report.exhaustive_simulations, 242u);
  EXPECT_EQ(report.step1_simulations, 121u);
  EXPECT_EQ(report.step2_simulations, report.survivors.size() * 2);
  EXPECT_EQ(report.reduced_simulations(),
            report.step1_simulations + report.step2_simulations);
  EXPECT_LT(report.reduced_simulations(), report.exhaustive_simulations);

  // Step 3: the final set is a non-dominated subset of the aggregation.
  ASSERT_FALSE(report.pareto_optimal.empty());
  EXPECT_LE(report.pareto_optimal.size(), report.survivors.size());
  std::vector<energy::Metrics> points;
  for (const auto& r : report.aggregated) points.push_back(r.metrics);
  for (std::size_t idx : report.pareto_optimal) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      EXPECT_FALSE(j != idx && energy::dominates(points[j], points[idx]));
    }
  }
}

TEST(Explorer, ScenarioRecordsFilterByLabel) {
  const ExplorationEngine engine(model());
  const CaseStudy study = tiny_url_study(2, 300);
  const ExplorationReport report = engine.explore(study);
  const auto sub = report.scenario_records("dart-berry");
  EXPECT_EQ(sub.size(), report.survivors.size());
  for (const auto& r : sub) EXPECT_EQ(r.network, "dart-berry");
}

// The fans build each scenario's key prefix once and append only the
// combination label per unit; the keys must still be key_of's, byte for
// byte, or a persisted cache would stop hitting.
TEST(Explorer, FanKeysAreKeyOfForEveryUnit) {
  const energy::EnergyModel m = model();
  const ExplorationEngine engine(m);
  support::ThreadPool pool(1);
  for (const std::string& name : api::registry().names()) {
    SCOPED_TRACE(name);
    const CaseStudy study =
        api::registry().make_study(name, CaseStudyOptions{}.scaled(0.05));
    SimulationCache cache;
    const ExplorationReport cold = engine.explore(study, cache, pool, nullptr);
    ASSERT_GT(study.scenarios.size(), 1u);

    // What the fans stored, keyed by key_of: the step-1 records on the
    // representative scenario, then every (scenario, survivor) pair.
    std::map<std::string, SimulationRecord> expected;
    const Scenario& representative = study.scenarios[study.representative];
    for (const SimulationRecord& r : cold.step1_records) {
      expected.emplace(SimulationCache::key_of(representative, r.combo, m), r);
    }
    const std::size_t per_scenario = cold.survivors.size();
    ASSERT_EQ(cold.step2_records.size(),
              per_scenario * study.scenarios.size());
    for (std::size_t j = 0; j < cold.step2_records.size(); ++j) {
      const SimulationRecord& r = cold.step2_records[j];
      expected.emplace(
          SimulationCache::key_of(study.scenarios[j / per_scenario], r.combo,
                                  m),
          r);
    }
    std::map<std::string, SimulationRecord> stored;
    for (auto& [key, record] : cache.entries()) stored.emplace(key, record);
    EXPECT_EQ(stored.size(), expected.size());
    for (const auto& entry : expected) {
      EXPECT_TRUE(stored.contains(entry.first))
          << "no fan key equals key_of for " << entry.second.scenario_label()
          << " / " << entry.second.combo.label();
    }

    // And the fans look up under key_of: a cache holding exactly those
    // keys replays the whole exploration.
    SimulationCache replay;
    for (const auto& [key, record] : expected) replay.insert(key, record);
    const ExplorationReport warm =
        engine.explore(study, replay, pool, nullptr);
    EXPECT_EQ(warm.executed_simulations(), 0u);
    EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
  }
}

TEST(Report, CsvContainsHeaderAndRows) {
  const ExplorationEngine engine(model());
  const CaseStudy study = tiny_url_study(1, 300);
  auto records = engine.run_step1(study);
  records.resize(5);
  std::ostringstream os;
  write_records_csv(os, records);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("app,network,config,combination"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);  // header + 5
}

TEST(Report, ParetoCsvFlagsFrontPoints) {
  std::vector<SimulationRecord> records(3);
  records[0].combo = ddt::DdtCombination({ddt::DdtKind::kArray});
  records[0].metrics = {1.0, 5.0, 0, 0};
  records[1].combo = ddt::DdtCombination({ddt::DdtKind::kSll});
  records[1].metrics = {5.0, 1.0, 0, 0};
  records[2].combo = ddt::DdtCombination({ddt::DdtKind::kDll});
  records[2].metrics = {6.0, 6.0, 0, 0};  // dominated
  std::ostringstream os;
  write_pareto_csv(os, records, 0, 1);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("AR,,,1.000000,5.000000,1"), std::string::npos);
  EXPECT_NE(csv.find("SLL,,,5.000000,1.000000,1"), std::string::npos);
  EXPECT_NE(csv.find("DLL,,,6.000000,6.000000,0"), std::string::npos);
}

// A daemon prints its report into an ostringstream, which takes the
// global locale: the counts must read as `explore` prints them anyway.
TEST(Report, CountsIgnoreTheGlobalLocale) {
  const ExplorationEngine engine(model());
  ExplorationReport report = engine.explore(tiny_url_study(1, 300));
  report.scenario_count = 1234;
  report.exhaustive_simulations = 123456;
  report.step1_executed_simulations = 4321;
  report.kernel_runs = 7654321;
  report.persistent_loaded = 1000000;
  report.persistent_stored = 2048;
  const auto print = [&report] {
    std::ostringstream os;
    print_report(os, report, "cache-dir");
    return os.str();
  };
  const std::string classic = print();
  EXPECT_NE(classic.find("exhaustive simulations: 123456\n"),
            std::string::npos)
      << classic;
  EXPECT_NE(classic.find("loaded 1000000, stored 2048 records"),
            std::string::npos)
      << classic;
  const test_support::ScopedCommaLocale comma;
  EXPECT_EQ(print(), classic);
}

}  // namespace
}  // namespace ddtr::core
