// Kernel time per DDT kind: for every registered study and every kind
// legal on its slot 0, the median wall time of one NetworkApplication::run
// of the composition diagonal that puts that kind on slot 0 (diagonal d
// holds K_s[min(d, |K_s| - 1)] on slot s, as the explorer runs it), on
// the study's representative scenario at DDTR_BENCH_SCALE. One discarded
// run per study first fills the app's per-trace memos, so the timings are
// the steady state every later kernel run of a scenario sees. Prints an
// app x kind table and emits one BenchJson line.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "support/table.h"

namespace {

using namespace ddtr;

constexpr int kRepetitions = 7;

// The explorer's diagonal `d` over the per-slot kind sets.
ddt::DdtCombination diagonal(
    const std::vector<std::vector<ddt::DdtKind>>& sets, std::size_t d) {
  std::vector<ddt::DdtKind> kinds;
  for (const auto& set : sets) {
    kinds.push_back(set[std::min(d, set.size() - 1)]);
  }
  return ddt::DdtCombination(std::move(kinds));
}

double median_run_ms(const core::Scenario& scenario,
                     const ddt::DdtCombination& combo) {
  std::vector<double> samples;
  for (int i = 0; i < kRepetitions; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    scenario.app->run(*scenario.trace, combo);
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  std::vector<std::string> header = {"Application", "scenario"};
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    header.emplace_back(ddt::to_string(kind));
  }
  support::TextTable table(std::move(header));
  std::ostringstream apps_json;
  apps_json << '[';

  const std::vector<std::string> names = api::registry().names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    const core::CaseStudy study =
        api::registry().make_study(names[a], bench::bench_options());
    const core::Scenario& scenario = study.scenarios[study.representative];
    const auto sets = study.slot_kind_sets();
    scenario.app->run(*scenario.trace, diagonal(sets, 0));  // fills memos

    std::vector<std::string> row(2 + ddt::kAllDdtKinds.size(), "-");
    row[0] = study.name;
    row[1] = scenario.label();
    if (a > 0) apps_json << ',';
    apps_json << "{\"app\":\"" << study.name << "\",\"scenario\":\""
              << scenario.label() << "\",\"run_ms\":{";
    for (std::size_t d = 0; d < sets[0].size(); ++d) {
      const ddt::DdtKind kind = sets[0][d];
      const double ms = median_run_ms(scenario, diagonal(sets, d));
      const auto column = std::find(ddt::kAllDdtKinds.begin(),
                                    ddt::kAllDdtKinds.end(), kind) -
                          ddt::kAllDdtKinds.begin();
      row[2 + static_cast<std::size_t>(column)] =
          support::format_double(ms, 3);
      apps_json << (d > 0 ? "," : "") << '"' << ddt::to_string(kind)
                << "\":" << ms;
    }
    apps_json << "}}";
    table.add_row(std::move(row));
  }
  apps_json << ']';

  std::cout << "== Kernel run() ms per slot-0 kind (composition diagonal, "
               "representative scenario, median of "
            << kRepetitions << ") ==\n\n";
  table.print(std::cout);
  std::cout << '\n';

  bench::BenchJson json("bench_kernel_kinds");
  json.field("repetitions", static_cast<std::uint64_t>(kRepetitions))
      .raw("apps", apps_json.str());
  json.emit();
  return 0;
}
