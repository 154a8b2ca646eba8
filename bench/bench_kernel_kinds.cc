// Kernel time per DDT kind and slot: for every registered study, every
// slot s and every kind k legal on it, the median wall time of one
// NetworkApplication::run of the combination that puts k on slot s and
// AR (legal on every slot) on every other slot, on the study's
// representative scenario at DDTR_BENCH_SCALE. So a cell is charged to
// the slot that pays it, never to the kind a composition diagonal
// happens to pair it with. One discarded run per study first fills the
// app's per-trace memos, so the timings are the steady state every later
// kernel run of a scenario sees. Prints one row per app x slot.
//
// A second table prices what step 2 actually pays: per app, one
// exploration of the reduced flow names its survivors, then the median
// run() ms of every survivor on every scenario is summed (the
// exploration itself has warmed every scenario's memos). Both tables go
// into one BenchJson line.
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

// `kind` on slot `slot` of a `slots`-slot study, AR on every other slot.
ddt::DdtCombination on_slot(std::size_t slots, std::size_t slot,
                            ddt::DdtKind kind) {
  std::vector<ddt::DdtKind> kinds(slots, ddt::DdtKind::kArray);
  kinds[slot] = kind;
  return ddt::DdtCombination(std::move(kinds));
}

double median_run_ms(const core::Scenario& scenario,
                     const ddt::DdtCombination& combo,
                     int repetitions = kRepetitions) {
  std::vector<double> samples;
  for (int i = 0; i < repetitions; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    scenario.app->run(*scenario.trace, combo);
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Kernel ms of the reduced flow's step 2: every survivor on every
// scenario, each timed as the median of a few runs, summed.
struct Step2Cost {
  std::size_t survivors = 0;
  std::size_t scenarios = 0;
  double kernel_ms = 0.0;
};

Step2Cost step2_cost(const core::CaseStudy& study) {
  const core::ExplorationReport report = api::Exploration(study).run();
  Step2Cost cost{report.survivors.size(), study.scenarios.size(), 0.0};
  for (const core::Scenario& scenario : study.scenarios) {
    for (const ddt::DdtCombination& combo : report.survivors) {
      cost.kernel_ms += median_run_ms(scenario, combo, 3);
    }
  }
  return cost;
}

}  // namespace

int main() {
  std::vector<std::string> header = {"Application", "slot", "scenario"};
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    header.emplace_back(ddt::to_string(kind));
  }
  support::TextTable table(std::move(header));
  std::ostringstream slots_json;
  slots_json << '[';

  const std::vector<std::string> names = api::registry().names();
  bool first_row = true;
  for (const std::string& name : names) {
    const core::CaseStudy study =
        api::registry().make_study(name, bench::bench_options());
    const core::Scenario& scenario = study.scenarios[study.representative];
    const auto sets = study.slot_kind_sets();
    // Fills the per-trace memos.
    scenario.app->run(*scenario.trace,
                      on_slot(sets.size(), 0, ddt::DdtKind::kArray));

    for (std::size_t slot = 0; slot < sets.size(); ++slot) {
      std::vector<std::string> row(3 + ddt::kAllDdtKinds.size(), "-");
      row[0] = study.name;
      row[1] = std::to_string(slot);
      row[2] = scenario.label();
      if (!first_row) slots_json << ',';
      first_row = false;
      slots_json << "{\"app\":\"" << study.name << "\",\"slot\":" << slot
                 << ",\"scenario\":\"" << scenario.label()
                 << "\",\"run_ms\":{";
      for (std::size_t k = 0; k < sets[slot].size(); ++k) {
        const ddt::DdtKind kind = sets[slot][k];
        const double ms =
            median_run_ms(scenario, on_slot(sets.size(), slot, kind));
        const auto column = std::find(ddt::kAllDdtKinds.begin(),
                                      ddt::kAllDdtKinds.end(), kind) -
                            ddt::kAllDdtKinds.begin();
        row[3 + static_cast<std::size_t>(column)] =
            support::format_double(ms, 3);
        slots_json << (k > 0 ? "," : "") << '"' << ddt::to_string(kind)
                   << "\":" << ms;
      }
      slots_json << "}}";
      table.add_row(std::move(row));
    }
  }
  slots_json << ']';

  std::cout << "== Kernel run() ms per slot and kind (other slots on AR, "
               "representative scenario, median of "
            << kRepetitions << ") ==\n\n";
  table.print(std::cout);
  std::cout << '\n';

  support::TextTable step2_table(
      {"Application", "survivors", "scenarios", "survivor runs",
       "step-2 kernel ms"});
  std::ostringstream step2_json;
  step2_json << '[';
  for (std::size_t a = 0; a < names.size(); ++a) {
    const core::CaseStudy study =
        api::registry().make_study(names[a], bench::bench_options());
    const Step2Cost cost = step2_cost(study);
    step2_table.add_row({study.name, std::to_string(cost.survivors),
                         std::to_string(cost.scenarios),
                         std::to_string(cost.survivors * cost.scenarios),
                         support::format_double(cost.kernel_ms, 3)});
    if (a > 0) step2_json << ',';
    step2_json << "{\"app\":\"" << study.name
               << "\",\"survivors\":" << cost.survivors
               << ",\"scenarios\":" << cost.scenarios
               << ",\"kernel_ms\":" << cost.kernel_ms << '}';
  }
  step2_json << ']';

  std::cout << "== Step-2 kernel ms: every survivor of the reduced flow on "
               "every scenario (median of 3 each, summed) ==\n\n";
  step2_table.print(std::cout);
  std::cout << '\n';

  bench::BenchJson json("bench_kernel_kinds");
  json.field("repetitions", static_cast<std::uint64_t>(kRepetitions))
      .raw("slots", slots_json.str())
      .raw("step2", step2_json.str());
  json.emit();
  return 0;
}
