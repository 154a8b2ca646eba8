// The per-trace memos of route (its routing table) and url (its first
// matching rule per request) are host-side set-up shared across kernel
// runs. They must be invisible in the results: an instance that switches
// between traces returns what fresh instances return, and concurrent
// runs on one fresh instance (racing to fill its memo) agree with a
// serial reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/route/route_app.h"
#include "apps/url/url_app.h"
#include "nettrace/generator.h"
#include "nettrace/presets.h"

namespace ddtr::apps {
namespace {

using AppFactory = std::function<std::unique_ptr<NetworkApplication>()>;

net::Trace make_trace(const std::string& preset, std::uint64_t seed_offset) {
  net::TraceGenerator::Options options;
  options.packet_count = 600;
  options.seed_offset = seed_offset;
  return net::TraceGenerator::generate(net::network_preset(preset), options);
}

void expect_same(const RunResult& got, const RunResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.total, want.total) << what;
  ASSERT_EQ(got.per_structure.size(), want.per_structure.size()) << what;
  for (std::size_t s = 0; s < got.per_structure.size(); ++s) {
    EXPECT_EQ(got.per_structure[s].first, want.per_structure[s].first)
        << what;
    EXPECT_EQ(got.per_structure[s].second, want.per_structure[s].second)
        << what;
  }
}

// Array, walked-list (SLL, DLL(O)) and chunked (SLL(AR), UNR) slots.
std::vector<ddt::DdtCombination> combos() {
  using K = ddt::DdtKind;
  return {ddt::DdtCombination({K::kArray, K::kArray}),
          ddt::DdtCombination({K::kSll, K::kDllRoving}),
          ddt::DdtCombination({K::kDllRoving, K::kSll}),
          ddt::DdtCombination({K::kSllOfArrays, K::kUnrolledScan})};
}

struct Case {
  std::string name;
  std::string preset;
  AppFactory make;
};

std::vector<Case> cases() {
  return {
      {"route", "nlanr-campus",
       [] {
         return std::make_unique<route::RouteApp>(
             route::RouteApp::Config{128, 7129});
       }},
      {"url", "dart-berry",
       [] {
         return std::make_unique<url::UrlApp>(
             url::UrlApp::Config{24, 8, 8101});
       }},
  };
}

TEST(TraceMemo, AlternatingTracesMatchFreshInstances) {
  for (const Case& c : cases()) {
    const net::Trace a = make_trace(c.preset, 0);
    const net::Trace b = make_trace(c.preset, 1);
    ASSERT_NE(a.content_hash(), b.content_hash());
    const std::unique_ptr<NetworkApplication> shared = c.make();
    for (int round = 0; round < 2; ++round) {
      for (const ddt::DdtCombination& combo : combos()) {
        for (const net::Trace* trace : {&a, &b}) {
          const std::string what = c.name + " " + combo.label() + " on " +
                                   (trace == &a ? "a" : "b") + " round " +
                                   std::to_string(round);
          expect_same(shared->run(*trace, combo),
                      c.make()->run(*trace, combo), what);
        }
      }
    }
  }
}

TEST(TraceMemo, ConcurrentRunsOnAFreshInstanceAgree) {
  for (const Case& c : cases()) {
    const net::Trace trace = make_trace(c.preset, 0);
    const std::vector<ddt::DdtCombination> all = combos();
    std::vector<RunResult> want;
    for (const ddt::DdtCombination& combo : all) {
      want.push_back(c.make()->run(trace, combo));
    }

    const std::unique_ptr<NetworkApplication> shared = c.make();
    constexpr std::size_t kThreads = 8;
    std::vector<RunResult> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = shared->run(trace, all[t % all.size()]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      expect_same(got[t], want[t % all.size()],
                  c.name + " thread " + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace ddtr::apps
