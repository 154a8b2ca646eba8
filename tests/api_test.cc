// Public API layer: StudyRegistry registration/enumeration semantics,
// StudyBuilder grid expansion and trace sharing (concurrent builds from an
// empty trace store generate each trace once), the Exploration session
// (chainable options), and the acceptance contract
// that a builder-built study produces a report byte-identical to the
// registered built-in.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/ddtr.h"
#include "apps/route/route_app.h"
#include "apps/url/url_app.h"
#include "nettrace/generator.h"
#include "nettrace/presets.h"
#include "nettrace/trace_store.h"

namespace ddtr::api {
namespace {

core::CaseStudyOptions tiny_options() {
  core::CaseStudyOptions options;
  options.packets = 200;
  return options;
}

// An application whose slot shape is given: what build() checks.
class ShapedApp final : public apps::NetworkApplication {
 public:
  explicit ShapedApp(std::vector<std::vector<ddt::DdtKind>> kinds)
      : kinds_(std::move(kinds)) {}
  std::string name() const override { return "Shaped"; }
  std::vector<std::string> dominant_structures() const override {
    return std::vector<std::string>(kinds_.size(), "slot");
  }
  std::vector<std::vector<ddt::DdtKind>> slot_kinds() const override {
    return kinds_;
  }
  apps::RunResult run(const net::Trace&, const ddt::DdtCombination&) override {
    return {};
  }

 private:
  std::vector<std::vector<ddt::DdtKind>> kinds_;
};

StudyBuilder::AppFactory tiny_url_app() {
  return [] {
    return std::make_shared<apps::url::UrlApp>(
        apps::url::UrlApp::Config{8, 4, 4242});
  };
}

TEST(StudyRegistry, BuiltinsRegisteredInTable1Order) {
  const std::vector<std::string> names = registry().names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "route");
  EXPECT_EQ(names[1], "url");
  EXPECT_EQ(names[2], "ipchains");
  EXPECT_EQ(names[3], "drr");
  for (const std::string& name : names) {
    EXPECT_TRUE(registry().contains(name));
    EXPECT_FALSE(registry().info(name).description.empty()) << name;
  }
  EXPECT_FALSE(registry().contains("no-such-workload"));
  EXPECT_THROW(registry().info("no-such-workload"), std::out_of_range);
  EXPECT_THROW(registry().make_study("no-such-workload", tiny_options()),
               std::out_of_range);
}

TEST(StudyRegistry, RejectsDuplicateAndMalformedRegistrations) {
  StudyRegistry local;
  local.add({"toy", "a toy workload",
             [](const core::CaseStudyOptions&) { return core::CaseStudy{}; }});
  EXPECT_EQ(local.size(), 1u);
  // Same name again — rejected, registry unchanged.
  EXPECT_THROW(
      local.add({"toy", "again",
                 [](const core::CaseStudyOptions&) {
                   return core::CaseStudy{};
                 }}),
      std::invalid_argument);
  EXPECT_EQ(local.size(), 1u);
  // Empty name and null factory — rejected up front.
  EXPECT_THROW(
      local.add({"", "nameless",
                 [](const core::CaseStudyOptions&) {
                   return core::CaseStudy{};
                 }}),
      std::invalid_argument);
  EXPECT_THROW(local.add({"no-factory", "missing", nullptr}),
               std::invalid_argument);
  // The built-in names are taken in the global registry too.
  EXPECT_THROW(registry().add({"route", "imposter",
                               [](const core::CaseStudyOptions&) {
                                 return core::CaseStudy{};
                               }}),
               std::invalid_argument);
}

TEST(CaseStudyOptions, PacketsForScalesRoundsAndFloors) {
  const core::CaseStudyOptions full;
  EXPECT_EQ(full.packets_for(2500), 2500u);
  EXPECT_EQ(full.scaled(0.25).packets_for(2500), 625u);
  EXPECT_EQ(full.scaled(0.05).packets_for(10000), 500u);
  EXPECT_EQ(full.scaled(0.05).packets_for(2500), 200u);  // the floor
  EXPECT_EQ(full.scaled(0.0001).packets_for(5001), 200u);
  EXPECT_EQ(full.scaled(0.5).packets_for(5001), 2501u);  // rounds half up
  EXPECT_EQ(full.scaled(2.0).scaled(0.5).packets_for(6000), 6000u);
  // A set packet count wins over the scale, floor included.
  core::CaseStudyOptions fixed = full.scaled(0.05);
  fixed.packets = 123;
  EXPECT_EQ(fixed.packets_for(10000), 123u);
  EXPECT_EQ(fixed.scaled(4.0).packets, 123u);
}

TEST(StudyBuilder, ExpandsNetworkMajorGridAndSharesTraces) {
  StudyBuilder builder("Toy");
  builder.packets(200).networks({"dart-berry", "dart-dorm"});
  builder.config("a=1", tiny_url_app()).config("a=2", tiny_url_app());
  EXPECT_EQ(builder.scenario_count(), 4u);

  const core::CaseStudy study = builder.build();
  EXPECT_EQ(study.name, "Toy");
  // The slot shape is the application's.
  EXPECT_EQ(study.slot_kind_sets(), study.scenarios[0].app->slot_kinds());
  EXPECT_EQ(study.slot_kind_sets().size(), 2u);
  EXPECT_EQ(study.representative, 0u);
  ASSERT_EQ(study.scenarios.size(), 4u);
  // Network-major order, configs inner — the order every paper study uses.
  EXPECT_EQ(study.scenarios[0].label(), "dart-berry/a=1");
  EXPECT_EQ(study.scenarios[1].label(), "dart-berry/a=2");
  EXPECT_EQ(study.scenarios[2].label(), "dart-dorm/a=1");
  EXPECT_EQ(study.scenarios[3].label(), "dart-dorm/a=2");
  // One immutable trace per network, shared across config cells.
  EXPECT_EQ(study.scenarios[0].trace.get(), study.scenarios[1].trace.get());
  EXPECT_EQ(study.scenarios[2].trace.get(), study.scenarios[3].trace.get());
  EXPECT_NE(study.scenarios[0].trace.get(), study.scenarios[2].trace.get());
  // Each cell gets its own application instance.
  EXPECT_NE(study.scenarios[0].app.get(), study.scenarios[1].app.get());
}

TEST(StudyBuilder, ConcurrentBuildsGenerateEachTraceOnceAndWarmBuildsNone) {
  net::TraceStore& store = net::TraceStore::global();
  store.clear();
  StudyBuilder builder("Toy");
  builder.packets(300).seed_offset(91).first_networks(7);
  builder.config("a=1", tiny_url_app()).config("a=2", tiny_url_app());

  // Two builders race from an empty store: 14 requests for 7 traces.
  core::CaseStudy studies[2];
  std::thread racer([&] { studies[1] = builder.build(); });
  studies[0] = builder.build();
  racer.join();
  EXPECT_EQ(store.size(), 7u);
  EXPECT_EQ(store.hits(), 7u);  // so 14 - 7 = 7 builds: each trace once
  ASSERT_EQ(studies[0].scenarios.size(), 14u);
  ASSERT_EQ(studies[1].scenarios.size(), 14u);
  for (std::size_t i = 0; i < studies[0].scenarios.size(); ++i) {
    const core::Scenario& scenario = studies[0].scenarios[i];
    EXPECT_EQ(scenario.trace.get(), studies[1].scenarios[i].trace.get());
    net::TraceGenerator::Options options;
    options.packet_count = 300;
    options.seed_offset = 91;
    const net::Trace direct = net::TraceGenerator::generate(
        net::network_preset(scenario.network), options);
    std::ostringstream stored_text;
    std::ostringstream direct_text;
    scenario.trace->save(stored_text);
    direct.save(direct_text);
    EXPECT_EQ(stored_text.str(), direct_text.str()) << scenario.label();
    EXPECT_EQ(scenario.trace->content_hash(), direct.content_hash());
  }

  // A warm build is answered entirely from the store.
  const core::CaseStudy warm = builder.build();
  EXPECT_EQ(store.hits(), 14u);
  EXPECT_EQ(store.size(), 7u);
  EXPECT_EQ(warm.scenarios[13].trace.get(),
            studies[0].scenarios[13].trace.get());
}

TEST(StudyBuilder, ValidatesTheDescription) {
  EXPECT_THROW(StudyBuilder("").build(), std::invalid_argument);
  // No packets / networks / configs.
  EXPECT_THROW(StudyBuilder("x").build(), std::invalid_argument);
  EXPECT_THROW(StudyBuilder("x").packets(100).network("dart-berry").build(),
               std::invalid_argument);  // no configs
  EXPECT_THROW(StudyBuilder("x").packets(100).app(tiny_url_app()).build(),
               std::invalid_argument);  // no networks
  EXPECT_THROW(StudyBuilder("x")
                   .packets(100)
                   .network("dart-berry")
                   .app(tiny_url_app())
                   .representative(1)
                   .build(),
               std::invalid_argument);  // representative out of range
  EXPECT_THROW(StudyBuilder("x")
                   .packets(100)
                   .network("not-a-preset")
                   .app(tiny_url_app())
                   .build(),
               std::out_of_range);  // unknown preset
  EXPECT_THROW(StudyBuilder("x")
                   .packets(100)
                   .network("dart-berry")
                   .config("c", nullptr)
                   .build(),
               std::invalid_argument);  // null factory
  // The application's slot shape: no slots, or a slot with no legal kind.
  const auto shaped = [](std::vector<std::vector<ddt::DdtKind>> kinds) {
    return StudyBuilder("x")
        .packets(100)
        .network("dart-berry")
        .app([kinds] { return std::make_shared<ShapedApp>(kinds); })
        .build();
  };
  EXPECT_THROW(shaped({}), std::invalid_argument);
  EXPECT_THROW(shaped({ddt::default_slot_kinds(), {}}),
               std::invalid_argument);
  EXPECT_EQ(shaped({{ddt::DdtKind::kArray}}).combination_count(), 1u);
}

TEST(Api, WorkloadRegisteredOutsideCoreExploresEndToEnd) {
  // The full user workflow: register -> enumerate -> build -> explore.
  // This registration lives entirely outside core/case_studies.cc, the
  // same path `ddtr explore --app NAME` resolves through.
  if (!registry().contains("toy-url")) {
    registry().add({"toy-url", "tiny URL study for the API test",
                    [](const core::CaseStudyOptions& options) {
                      return StudyBuilder("ToyURL")
                          .packets(options.packets_for(10000))
                          .networks({"dart-berry", "dart-dorm"})
                          .app(tiny_url_app())
                          .build();
                    }});
  }
  Exploration session(registry().make_study("toy-url", tiny_options()));
  const core::ExplorationReport& report = session.jobs(2).run();
  EXPECT_EQ(report.app_name, "ToyURL");
  EXPECT_EQ(report.scenario_count, 2u);
  EXPECT_EQ(report.step1_simulations, 121u);  // 11^2 combinations
  EXPECT_FALSE(report.pareto_optimal.empty());
  EXPECT_EQ(&report, &session.report());
}

TEST(Exploration, ReportThrowsBeforeRunAndOptionsChain) {
  const core::CaseStudy study = StudyBuilder("ToyMin")
                                    .packets(200)
                                    .network("dart-berry")
                                    .app(tiny_url_app())
                                    .build();
  Exploration session(study);
  EXPECT_FALSE(session.has_report());
  EXPECT_THROW(session.report(), std::logic_error);

  session.jobs(2)
      .survivor_cap(0.1)
      .champions_per_metric(1)
      .step1_policy(core::Step1Policy::kGreedyPerSlot);
  EXPECT_EQ(session.options().jobs, 2u);
  EXPECT_EQ(session.options().survivor_cap_fraction, 0.1);
  EXPECT_EQ(session.options().champions_per_metric, 1u);
  EXPECT_EQ(session.options().step1_policy,
            core::Step1Policy::kGreedyPerSlot);

  session.run();
  EXPECT_TRUE(session.has_report());
  // Greedy step 1: 1 baseline + 2 slots x 10 variations = 21 simulations.
  EXPECT_EQ(session.report().step1_simulations, 21u);
}

TEST(Api, BuilderStudyBitIdenticalToRegistryRoute) {
  const core::CaseStudyOptions options = tiny_options();

  // The documented builder recipe for the paper's Route study...
  StudyBuilder builder("Route");
  builder.packets(options.packets_for(2500)).first_networks(7);
  for (const std::size_t table : {std::size_t{128}, std::size_t{256}}) {
    builder.config("table=" + std::to_string(table), [table] {
      return std::make_shared<apps::route::RouteApp>(
          apps::route::RouteApp::Config{table, 7001 + table});
    });
  }
  const core::CaseStudy built = builder.build();

  // ...versus the registered built-in.
  const core::CaseStudy registered = registry().make_study("route", options);

  ASSERT_EQ(built.scenarios.size(), registered.scenarios.size());
  for (std::size_t i = 0; i < built.scenarios.size(); ++i) {
    EXPECT_EQ(built.scenarios[i].label(), registered.scenarios[i].label());
    // Same shared trace instance (both come from the global TraceStore).
    EXPECT_EQ(built.scenarios[i].trace.get(),
              registered.scenarios[i].trace.get());
  }

  // The whole report — every record, survivor and Pareto index — must be
  // byte-identical between the two construction paths.
  Exploration built_session(built);
  Exploration registered_session(registered);
  const core::ExplorationReport& a = built_session.run();
  const core::ExplorationReport& b = registered_session.run();
  EXPECT_EQ(a.serialized_records(), b.serialized_records());
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.pareto_optimal, b.pareto_optimal);
  EXPECT_EQ(a.step1_simulations, b.step1_simulations);
  EXPECT_EQ(a.step2_simulations, b.step2_simulations);
  ASSERT_EQ(a.aggregated.size(), b.aggregated.size());
  for (std::size_t i = 0; i < a.aggregated.size(); ++i) {
    EXPECT_EQ(a.aggregated[i].metrics.energy_mj,
              b.aggregated[i].metrics.energy_mj);
    EXPECT_EQ(a.aggregated[i].metrics.time_s, b.aggregated[i].metrics.time_s);
    EXPECT_EQ(a.aggregated[i].metrics.accesses,
              b.aggregated[i].metrics.accesses);
    EXPECT_EQ(a.aggregated[i].metrics.footprint_bytes,
              b.aggregated[i].metrics.footprint_bytes);
  }
}

}  // namespace
}  // namespace ddtr::api
