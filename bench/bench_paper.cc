// The paper scorecard: every number Bartzas et al. (DATE 2006) state for
// Table 1, Table 2, Figures 3-4 and the headline savings, beside ours and
// their ratio, from one serial exploration of the four built-in studies at
// the paper's trace lengths (scale 1). Below it, the data behind those
// rows: survivors, spreads, savings per application, fronts and curves.
// Writes fig3_url_pareto_space.csv and fig4_route_curves.csv into the
// working directory.
//
// Stdout is deterministic: the bench_paper ctest compares it byte for byte
// with tests/golden/bench_paper.txt. The commit and the wall time go to
// stderr.
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/ddtr.h"
#include "core/report.h"
#include "ddt/factory.h"
#include "support/table.h"

namespace {

using namespace ddtr;

// One formatter per row prints the paper's value and ours alike.
using Format = std::string (*)(double);
std::string count(double v) {
  return std::to_string(static_cast<std::uint64_t>(v));
}
std::string thousands(double v) {
  return support::format_count(static_cast<std::uint64_t>(v));
}
std::string percent(double v) { return support::format_percent(v); }
std::string premium(double v) { return "+" + support::format_percent(v); }
std::string factor(double v) { return support::format_double(v, 1) + "x"; }
std::string millijoules(double v) { return support::format_double(v, 3); }
std::string seconds(double v) { return support::format_double(v, 4); }

class Scorecard {
 public:
  // ours / paper to three significant digits.
  void row(std::string quantity, double paper, double ours, Format format) {
    std::ostringstream ratio;
    ratio << std::setprecision(3) << ours / paper;
    table_.add_row(
        {std::move(quantity), format(paper), format(ours), ratio.str()});
  }
  // A quantity whose two values are not a ratio apart.
  void text(std::string quantity, std::string paper, std::string ours) {
    table_.add_row(
        {std::move(quantity), std::move(paper), std::move(ours), "-"});
  }
  void print(std::ostream& os) const { table_.print(os); }

 private:
  support::TextTable table_{{"quantity", "paper", "ours", "ours/paper"}};
};

// The built-in studies in the paper's Table 1 order, with its rows.
struct PaperStudy {
  const char* name;
  double exhaustive, reduced, pareto;
  std::array<double, energy::kMetricCount> spread;  // Table 2
};
constexpr PaperStudy kPaper[] = {
    {"route", 1400, 271, 7, {0.90, 0.20, 0.88, 0.30}},
    {"url", 500, 110, 4, {0.52, 0.13, 0.70, 0.82}},
    {"ipchains", 2100, 546, 6, {0.38, 0.03, 0.87, 0.63}},
    {"drr", 500, 60, 3, {0.93, 0.48, 0.53, 0.80}},
};
constexpr const char* kSpreadNames[] = {"energy", "time", "accesses",
                                        "footprint"};

std::vector<energy::Metrics> metrics_of(
    const std::vector<core::SimulationRecord>& records) {
  std::vector<energy::Metrics> out;
  for (const auto& r : records) out.push_back(r.metrics);
  return out;
}

std::vector<energy::Metrics> pareto_of(
    const std::vector<energy::Metrics>& points) {
  std::vector<energy::Metrics> out;
  for (std::size_t idx : core::pareto_filter(points)) {
    out.push_back(points[idx]);
  }
  return out;
}

// Table 2's points: the union of the per-scenario Pareto sets (the paper
// quotes the widest trade-offs across its per-network curves), not only
// the aggregated recommendation set.
std::vector<energy::Metrics> scenario_pareto_union(
    const core::ExplorationReport& report) {
  std::set<std::string> scenarios;
  for (const auto& r : report.step2_records) {
    scenarios.insert(r.scenario_label());
  }
  std::vector<energy::Metrics> out;
  for (const std::string& label : scenarios) {
    for (const energy::Metrics& m :
         pareto_of(metrics_of(report.scenario_records(label)))) {
      out.push_back(m);
    }
  }
  return out;
}

// The Pareto front of `points` (4-D dominance, as step 3 computes it),
// sorted by metric `by`.
std::vector<std::size_t> sorted_front(
    const std::vector<energy::Metrics>& points, std::size_t by) {
  std::vector<std::size_t> front = core::pareto_filter(points);
  std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
    return points[a].as_array()[by] < points[b].as_array()[by];
  });
  return front;
}

// Figure 4's per-network curves: each scenario's front projected onto
// (mx, my) and sorted by mx.
void print_curves(std::ostream& os, const core::ExplorationReport& route,
                  const std::string& config, std::size_t mx,
                  std::size_t my) {
  support::TextTable table({"network", "combination",
                            energy::kMetricNames[mx],
                            energy::kMetricNames[my]});
  std::set<std::string> networks;
  for (const auto& r : route.step2_records) networks.insert(r.network);
  for (const std::string& network : networks) {
    const auto records = route.scenario_records(network + "/" + config);
    const std::vector<energy::Metrics> points = metrics_of(records);
    for (std::size_t idx : sorted_front(points, mx)) {
      const auto v = points[idx].as_array();
      table.add_row({network, records[idx].combo.label(),
                     support::format_double(v[mx], 6),
                     support::format_double(v[my], 6)});
    }
  }
  table.print(os);
}

// Table 1 and Table 2, with survivors and aggregated spreads below.
void tables(const std::vector<core::ExplorationReport>& reports,
            Scorecard& card, std::ostream& os) {
  double reduction_sum = 0.0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const core::ExplorationReport& report = reports[i];
    const PaperStudy& paper = kPaper[i];
    const std::string app = report.app_name;
    const double reduction =
        1.0 - static_cast<double>(report.reduced_simulations()) /
                  static_cast<double>(report.exhaustive_simulations);
    reduction_sum += reduction;
    card.row("Table 1 " + app + " exhaustive", paper.exhaustive,
             static_cast<double>(report.exhaustive_simulations), count);
    card.row("Table 1 " + app + " reduced", paper.reduced,
             static_cast<double>(report.reduced_simulations()), count);
    card.row("Table 1 " + app + " Pareto-optimal", paper.pareto,
             static_cast<double>(report.pareto_optimal.size()), count);
    // The paper's reduction per application follows from its two columns.
    card.row("Table 1 " + app + " reduction",
             1.0 - paper.reduced / paper.exhaustive, reduction, percent);
  }
  card.row("Table 1 average reduction", 0.80,
           reduction_sum / static_cast<double>(reports.size()), percent);
  std::string union_sizes;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::vector<energy::Metrics> points =
        scenario_pareto_union(reports[i]);
    union_sizes +=
        " " + reports[i].app_name + " " + std::to_string(points.size());
    for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
      card.row("Table 2 " + reports[i].app_name + " " + kSpreadNames[m] +
                   " spread",
               kPaper[i].spread[m], core::tradeoff_span(points, m), percent);
    }
  }

  os << "== Table 1: survivors per application (step 1 -> step 2) ==\n\n";
  for (const core::ExplorationReport& report : reports) {
    os << "  " << report.app_name << ": " << report.survivors.size() << "/"
       << report.combination_count
       << " combinations kept; Pareto-optimal set:";
    for (std::size_t idx : report.pareto_optimal) {
      os << ' ' << report.aggregated[idx].combo.label();
    }
    os << '\n';
  }

  os << "\n== Table 2: spreads over the aggregated Pareto-optimal set "
        "==\n\nThe scorecard's Table 2 rows span the union of the "
        "per-scenario Pareto sets:"
     << union_sizes << " points.\n\n";
  support::TextTable table({"Application", "Energy", "Exec. Time",
                            "Mem. Accesses", "Mem. Footprint"});
  for (const core::ExplorationReport& report : reports) {
    const std::vector<energy::Metrics> points =
        metrics_of(report.pareto_records());
    std::vector<std::string> row = {report.app_name};
    for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
      row.push_back(support::format_percent(core::tradeoff_span(points, m)));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

// The headline (§1, §4, §5): step 2 against the original NetBench
// implementations (every dominant structure an SLL), and the step-3
// extremes among Pareto-optimal choices.
void headline(const std::vector<core::ExplorationReport>& reports,
              Scorecard& card, std::ostream& os) {
  const auto saving = [](double orig, double now) {
    return orig > 0.0 ? 1.0 - now / orig : 0.0;
  };
  support::TextTable table({"Application", "Energy saving", "Time saving",
                            "Accesses saving", "Footprint saving",
                            "best combo (energy)"});
  double best_energy_saving = 0.0;
  double best_time_saving = 0.0;
  double max_energy_span = 0.0;
  double max_time_span = 0.0;
  for (const core::ExplorationReport& report : reports) {
    // The original runs on the representative scenario, which step 1's
    // full factorial space covers.
    const core::SimulationRecord* original = nullptr;
    for (const auto& r : report.step1_records) {
      if (r.combo.label() == "SLL+SLL") original = &r;
    }
    // The refined choice: the best-energy member of that space that
    // increases neither footprint nor accesses ("without any increase in
    // memory footprint and memory accesses").
    const core::SimulationRecord* refined = nullptr;
    for (const auto& r : report.step1_records) {
      if (r.metrics.footprint_bytes > original->metrics.footprint_bytes ||
          r.metrics.accesses > original->metrics.accesses) {
        continue;
      }
      if (refined == nullptr ||
          r.metrics.energy_mj < refined->metrics.energy_mj) {
        refined = &r;
      }
    }
    const energy::Metrics& o = original->metrics;
    const energy::Metrics& n = refined->metrics;
    const double e = saving(o.energy_mj, n.energy_mj);
    const double t = saving(o.time_s, n.time_s);
    best_energy_saving = std::max(best_energy_saving, e);
    best_time_saving = std::max(best_time_saving, t);
    table.add_row(
        {report.app_name, support::format_percent(e),
         support::format_percent(t),
         support::format_percent(saving(static_cast<double>(o.accesses),
                                        static_cast<double>(n.accesses))),
         support::format_percent(
             saving(static_cast<double>(o.footprint_bytes),
                    static_cast<double>(n.footprint_bytes))),
         refined->combo.label()});

    const std::vector<energy::Metrics> pareto =
        pareto_of(metrics_of(report.step2_records));
    max_energy_span =
        std::max(max_energy_span, core::tradeoff_span(pareto, 0));
    max_time_span = std::max(max_time_span, core::tradeoff_span(pareto, 1));
  }
  card.row("Headline best energy saving vs all-SLL", 0.80,
           best_energy_saving, percent);
  card.row("Headline best time saving vs all-SLL", 0.22, best_time_saving,
           percent);
  card.row("Step 3 max energy reduction among Pareto", 0.93,
           max_energy_span, percent);
  card.row("Step 3 max performance spread among Pareto", 0.48,
           max_time_span, percent);

  os << "\n== Headline: refined DDTs vs original (all-SLL) NetBench "
        "implementations ==\n\n";
  table.print(os);
}

// Figure 3: URL's full design space on one network (a) and its front (b).
void figure3(const core::ExplorationReport& url, Scorecard& card,
             std::ostream& os) {
  const std::vector<core::SimulationRecord>& space = url.step1_records;
  const std::vector<energy::Metrics> points = metrics_of(space);
  const std::vector<std::size_t> front = sorted_front(points, 1);

  double emin = 1e300, emax = 0, tmin = 1e300, tmax = 0;
  for (const auto& m : points) {
    emin = std::min(emin, m.energy_mj);
    emax = std::max(emax, m.energy_mj);
    tmin = std::min(tmin, m.time_s);
    tmax = std::max(tmax, m.time_s);
  }
  os << "\n== Figure 3(a): Performance vs. Energy Pareto space of URL ("
     << space.size() << " DDT combinations, network "
     << space.front().network << ") ==\n\n"
     << "design space: energy [" << support::format_double(emin, 4) << ", "
     << support::format_double(emax, 4) << "] mJ, time ["
     << support::format_double(tmin * 1e3, 3) << ", "
     << support::format_double(tmax * 1e3, 3) << "] ms\n"
     << "energy span max/min = " << factor(emax / emin)
     << ", time span max/min = " << factor(tmax / tmin) << "\n";

  os << "\n== Figure 3(b): Pareto-optimal points (time vs energy) ==\n\n";
  support::TextTable table({"combination", "time_ms", "energy_mJ",
                            "accesses", "footprint_B"});
  std::vector<energy::Metrics> pareto;
  for (std::size_t idx : front) {
    const auto& r = space[idx];
    pareto.push_back(r.metrics);
    table.add_row({r.combo.label(),
                   support::format_double(r.metrics.time_s * 1e3, 3),
                   support::format_double(r.metrics.energy_mj, 4),
                   support::format_count(r.metrics.accesses),
                   support::format_count(r.metrics.footprint_bytes)});
  }
  table.print(os);

  // §4's URL summary: best- against worst-energy Pareto point.
  card.row("Figure 3 URL Pareto energy reduction", 0.52,
           core::tradeoff_span(pareto, 0), percent);
  card.row("Figure 3 URL Pareto time spread", 0.13,
           core::tradeoff_span(pareto, 1), percent);

  std::ofstream csv("fig3_url_pareto_space.csv");
  core::write_pareto_csv(csv, space, 1, 0);
  os << "\nwrote fig3_url_pareto_space.csv (" << space.size()
     << " points, " << front.size() << " on the front)\n";
}

// Figure 4: Route's per-network curves at table sizes 128 (a) and 256
// (b), the designer's pick and accesses vs footprint (c) on Berry, the
// all-DLL premium and the worst/best factors over the design space.
void figure4(const core::ExplorationReport& route, Scorecard& card,
             std::ostream& os) {
  os << "\n== Figure 4(a): Route, exec time vs energy Pareto curves, "
        "table size 128 (one curve per network) ==\n\n";
  print_curves(os, route, "table=128", 1, 0);
  os << "\n== Figure 4(b): table size 256 ==\n\n";
  print_curves(os, route, "table=256", 1, 0);

  const std::string berry_label = "dart-berry/table=256";
  const auto berry = route.scenario_records(berry_label);
  const std::vector<energy::Metrics> berry_points = metrics_of(berry);
  const std::vector<std::size_t> berry_front =
      core::pareto_filter(berry_points);
  // The designer's pick is the knee: the lowest sum of metric ratios to
  // the per-metric best on the front.
  std::array<double, energy::kMetricCount> best_v;
  best_v.fill(1e300);
  for (std::size_t idx : berry_front) {
    const auto v = berry_points[idx].as_array();
    for (std::size_t m = 0; m < v.size(); ++m) {
      best_v[m] = std::min(best_v[m], v[m]);
    }
  }
  std::size_t knee = berry_front.front();
  double knee_score = 1e300;
  for (std::size_t idx : berry_front) {
    const auto v = berry_points[idx].as_array();
    double score = 0.0;
    for (std::size_t m = 0; m < v.size(); ++m) {
      score += best_v[m] > 0.0 ? v[m] / best_v[m] : 0.0;
    }
    if (score < knee_score) {
      knee_score = score;
      knee = idx;
    }
  }
  const energy::Metrics& pick = berry_points[knee];
  card.text("Figure 4 Berry pick combination", "AR+DLL",
            berry[knee].combo.label());
  card.row("Figure 4 Berry pick energy (mJ)", 6.4, pick.energy_mj,
           millijoules);
  card.row("Figure 4 Berry pick time (s)", 0.17, pick.time_s, seconds);
  card.row("Figure 4 Berry pick footprint (B)", 477329,
           static_cast<double>(pick.footprint_bytes), thousands);
  card.row("Figure 4 Berry pick accesses", 4578103,
           static_cast<double>(pick.accesses), thousands);

  os << "\n== Figure 4(c): accesses vs footprint, dart-berry ==\n\n";
  support::TextTable c_table({"combination", "accesses", "footprint_B"});
  for (std::size_t idx : sorted_front(berry_points, 2)) {
    c_table.add_row(
        {berry[idx].combo.label(),
         support::format_count(berry_points[idx].accesses),
         support::format_count(berry_points[idx].footprint_bytes)});
  }
  c_table.print(os);

  // §4: all-DLL against the per-metric best Pareto point on Berry,
  // simulated directly (DLL+DLL need not be a survivor).
  const core::CaseStudy study =
      api::registry().make_study("route", core::CaseStudyOptions{});
  const core::Scenario* berry256 = nullptr;
  for (const auto& s : study.scenarios) {
    if (s.label() == berry_label) berry256 = &s;
  }
  const energy::Metrics dll =
      core::simulate(*berry256,
                     ddt::DdtCombination({ddt::DdtKind::kDll,
                                          ddt::DdtKind::kDll}),
                     core::make_paper_energy_model())
          .metrics;
  double best_energy = 1e300, best_time = 1e300, best_fp = 1e300;
  for (const auto& m : berry_points) {
    best_energy = std::min(best_energy, m.energy_mj);
    best_time = std::min(best_time, m.time_s);
    best_fp = std::min(best_fp, static_cast<double>(m.footprint_bytes));
  }
  card.row("Figure 4 all-DLL footprint premium", 0.688,
           static_cast<double>(dll.footprint_bytes) / best_fp - 1.0,
           premium);
  card.row("Figure 4 all-DLL energy premium", 0.12,
           dll.energy_mj / best_energy - 1.0, premium);
  // The paper times all-DLL against the best-energy point, we against
  // the best time: not a ratio.
  card.text("Figure 4 all-DLL time vs best (*)", "-12.5%",
            percent(dll.time_s / best_time - 1.0));

  // Worst/best factors over the full design space.
  std::array<double, energy::kMetricCount> lo, hi;
  lo.fill(1e300);
  hi.fill(0.0);
  for (const auto& r : route.step1_records) {
    const auto v = r.metrics.as_array();
    for (std::size_t m = 0; m < v.size(); ++m) {
      lo[m] = std::min(lo[m], v[m]);
      hi[m] = std::max(hi[m], v[m]);
    }
  }
  constexpr double kPaperFactor[] = {11, 2, 8, 12};
  for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
    card.row(std::string("Figure 4 worst/best ") + kSpreadNames[m],
             kPaperFactor[m], hi[m] / lo[m], factor);
  }

  std::ofstream csv("fig4_route_curves.csv");
  core::write_pareto_csv(csv, route.step2_records, 1, 0);
  os << "\nwrote fig4_route_curves.csv\n";
}

}  // namespace

int main() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<core::ExplorationReport> reports;
  for (const PaperStudy& paper : kPaper) {
    api::Exploration session(
        api::registry().make_study(paper.name, core::CaseStudyOptions{}));
    reports.push_back(session.run());
  }

  Scorecard card;
  std::ostringstream details;
  tables(reports, card, details);
  headline(reports, card, details);
  figure3(reports[1], card, details);
  figure4(reports[0], card, details);

  std::cout << "== Paper scorecard: Bartzas et al. (DATE 2006) beside this "
               "build, scale 1 ==\n\n";
  card.print(std::cout);
  std::cout << "\n(*) the paper times all-DLL against its best-energy "
               "point, we against the best time.\n\n"
            << details.str();
  std::cerr << "[ddtr] bench_paper at " << DDTR_GIT_SHA << ": "
            << std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count()
            << " s\n";
  return 0;
}
