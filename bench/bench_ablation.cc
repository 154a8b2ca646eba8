// Ablations of the methodology's design choices (README, *Benches*):
//  1. Step-1 pruning aggressiveness: survivor cap fraction vs exploration
//     cost and result quality (does the reduced flow still find the
//     combination the exhaustive flow would pick?).
//  2. Energy-model organization: scratchpad (paper-faithful, footprint-
//     sized SRAM) vs cached host hierarchy — does the winning combination
//     change, i.e. how sensitive are the paper's conclusions to the
//     platform model?
#include <algorithm>
#include <iostream>
#include <set>

#include "bench_common.h"
#include "support/table.h"

int main() {
  using namespace ddtr;

  const core::CaseStudy url =
      api::registry().make_study("url", bench::bench_options());

  std::cout << "== Ablation 1: step-1 survivor cap (URL case study) ==\n\n";
  // Exhaustive reference: best energy over the full factorial space on
  // every scenario would require 500 simulations; the representative-
  // scenario space is the upper bound any pruning can achieve on it.
  const core::ExplorationEngine reference_engine(
      core::make_paper_energy_model());
  const auto full_space = reference_engine.run_step1(url);
  std::string exhaustive_best;
  double exhaustive_best_energy = 1e300;
  for (const auto& r : full_space) {
    if (r.metrics.energy_mj < exhaustive_best_energy) {
      exhaustive_best_energy = r.metrics.energy_mj;
      exhaustive_best = r.combo.label();
    }
  }

  support::TextTable t1({"champions/metric", "cap fraction", "survivors",
                         "reduced sims", "best-energy combo kept?",
                         "energy penalty"});
  const std::pair<std::size_t, double> policies[] = {
      {1, 0.04}, {1, 0.08}, {2, 0.12}, {3, 0.20}, {5, 0.40}};
  for (const auto& [champions, cap] : policies) {
    core::ExplorationOptions options;
    options.survivor_cap_fraction = cap;
    options.champions_per_metric = champions;
    const core::ExplorationEngine engine(core::make_paper_energy_model(),
                                         options);
    const auto report = engine.explore(url);
    double best_kept = 1e300;
    bool kept = false;
    for (const auto& r : report.step2_records) {
      if (r.network == url.scenarios[url.representative].network) {
        best_kept = std::min(best_kept, r.metrics.energy_mj);
      }
      kept |= r.combo.label() == exhaustive_best;
    }
    t1.add_row({std::to_string(champions), support::format_percent(cap, 0),
                std::to_string(report.survivors.size()),
                std::to_string(report.reduced_simulations()),
                kept ? "yes" : "no",
                support::format_percent(
                    best_kept / exhaustive_best_energy - 1.0)});
  }
  t1.print(std::cout);
  std::cout << "(energy penalty: best step-2 energy on the representative "
               "network vs the exhaustive best)\n";

  std::cout << "\n== Ablation 1b: exhaustive vs greedy-per-slot step 1 "
               "(DRR case study — the paper's DRR row reports only 60 "
               "reduced simulations, below the 100 a full factorial would "
               "need) ==\n\n";
  {
    const core::CaseStudy drr =
        api::registry().make_study("drr", bench::bench_options());
    core::ExplorationOptions greedy_options;
    greedy_options.step1_policy = core::Step1Policy::kGreedyPerSlot;
    const core::ExplorationEngine greedy(core::make_paper_energy_model(),
                                         greedy_options);
    const core::ExplorationEngine exhaustive(core::make_paper_energy_model());
    const auto g = greedy.explore(drr);
    const auto e = exhaustive.explore(drr);
    const auto best_energy = [](const core::ExplorationReport& r) {
      double best = 1e300;
      for (const auto& rec : r.step2_records) {
        best = std::min(best, rec.metrics.energy_mj);
      }
      return best;
    };
    support::TextTable t1b({"policy", "step-1 sims", "reduced sims",
                            "pareto set", "best step-2 energy (mJ)"});
    t1b.add_row({"exhaustive", std::to_string(e.step1_simulations),
                 std::to_string(e.reduced_simulations()),
                 std::to_string(e.pareto_optimal.size()),
                 support::format_double(best_energy(e), 4)});
    t1b.add_row({"greedy-per-slot", std::to_string(g.step1_simulations),
                 std::to_string(g.reduced_simulations()),
                 std::to_string(g.pareto_optimal.size()),
                 support::format_double(best_energy(g), 4)});
    t1b.print(std::cout);
  }

  std::cout << "\n== Ablation 2: scratchpad vs cached platform model "
               "(URL, representative network) ==\n\n";
  const core::ExplorationEngine cached_engine{energy::EnergyModel{
      energy::MemoryHierarchy::cached()}};
  const auto cached_space = cached_engine.run_step1(url);

  const auto top_k = [](const std::vector<core::SimulationRecord>& records,
                        std::size_t k) {
    std::vector<const core::SimulationRecord*> sorted;
    for (const auto& r : records) sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(), [](auto* a, auto* b) {
      return a->metrics.energy_mj < b->metrics.energy_mj;
    });
    sorted.resize(k);
    std::set<std::string> labels;
    for (auto* r : sorted) labels.insert(r->combo.label());
    return labels;
  };
  const auto scratch_top = top_k(full_space, 10);
  const auto cached_top = top_k(cached_space, 10);
  std::vector<std::string> common;
  std::set_intersection(scratch_top.begin(), scratch_top.end(),
                        cached_top.begin(), cached_top.end(),
                        std::back_inserter(common));

  std::cout << "energy winner (scratchpad): " << *top_k(full_space, 1).begin()
            << "\nenergy winner (cached):     "
            << *top_k(cached_space, 1).begin()
            << "\ntop-10 overlap between models: " << common.size()
            << "/10\n";
  std::cout << "\nInterpretation: large overlap means the paper's DDT "
               "ranking is robust to the platform model; the absolute "
               "energies differ, the ordering mostly does not.\n";
  return 0;
}
