// Pareto machinery tests, including randomized properties checked against
// a brute-force oracle: the sort-based pareto_filter must return what the
// O(n^2) definition returns, index for index.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "api/ddtr.h"
#include "core/explorer.h"
#include "core/pareto.h"
#include "support/rng.h"

namespace ddtr::core {
namespace {

energy::Metrics point(double e, double t, std::uint64_t a, std::uint64_t f) {
  return energy::Metrics{e, t, a, f};
}

// The definition: a point survives unless some other point dominates it.
std::vector<std::size_t> brute_force_pareto(
    const std::vector<energy::Metrics>& points) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      dominated = j != i && energy::dominates(points[j], points[i]);
    }
    if (!dominated) result.push_back(i);
  }
  return result;
}

TEST(ParetoFilter, EmptyInput) {
  EXPECT_TRUE(pareto_filter({}).empty());
}

TEST(ParetoFilter, SinglePointSurvives) {
  EXPECT_EQ(pareto_filter({point(1, 1, 1, 1)}).size(), 1u);
}

TEST(ParetoFilter, DominatedPointRemoved) {
  const auto keep = pareto_filter({point(1, 1, 1, 1), point(2, 2, 2, 2)});
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 0u);
}

TEST(ParetoFilter, TradeoffsAllSurvive) {
  const auto keep = pareto_filter(
      {point(1, 4, 10, 10), point(4, 1, 10, 10), point(2, 2, 10, 10)});
  EXPECT_EQ(keep.size(), 3u);
}

TEST(ParetoFilter, DuplicatePointsAllSurvive) {
  // Equal points do not dominate each other (no strict improvement).
  const auto keep = pareto_filter({point(1, 1, 1, 1), point(1, 1, 1, 1)});
  EXPECT_EQ(keep.size(), 2u);
}

TEST(ParetoFilter, NoSurvivorIsDominated_RandomProperty) {
  support::Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<energy::Metrics> points;
    for (int i = 0; i < 80; ++i) {
      points.push_back(point(rng.uniform_real(0, 10), rng.uniform_real(0, 10),
                             rng.uniform(0, 1000), rng.uniform(0, 1000)));
    }
    const auto keep = pareto_filter(points);
    EXPECT_FALSE(keep.empty());
    for (std::size_t idx : keep) {
      for (std::size_t j = 0; j < points.size(); ++j) {
        EXPECT_FALSE(j != idx && energy::dominates(points[j], points[idx]));
      }
    }
    // And every discarded point is dominated by someone.
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (std::find(keep.begin(), keep.end(), i) != keep.end()) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
        dominated = j != i && energy::dominates(points[j], points[i]);
      }
      EXPECT_TRUE(dominated) << "discarded non-dominated point " << i;
    }
  }
}

// Coordinates drawn from four values each, so equal coordinates, whole
// duplicate points and the -0.0 / +0.0 tie are common.
TEST(ParetoFilter, EqualsTheBruteForceOracleOnTiesAndDuplicates) {
  static constexpr double kReals[] = {-0.0, 0.0, 1.0, 2.5};
  static constexpr std::uint64_t kCounts[] = {0, 1, 7, 8};
  support::Rng rng(0x9a7e70);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<energy::Metrics> points(rng.uniform(0, 300));
    for (energy::Metrics& p : points) {
      p = point(kReals[rng.uniform(0, 3)], kReals[rng.uniform(0, 3)],
                kCounts[rng.uniform(0, 3)], kCounts[rng.uniform(0, 3)]);
    }
    ASSERT_EQ(pareto_filter(points), brute_force_pareto(points))
        << "trial " << trial << ", " << points.size() << " points";
  }
}

TEST(ParetoFilter, EqualsTheBruteForceOracleOnEveryBuiltInsStepOne) {
  const ExplorationEngine engine(make_paper_energy_model());
  for (const std::string& name : api::registry().names()) {
    SCOPED_TRACE(name);
    const CaseStudy study =
        api::registry().make_study(name, CaseStudyOptions{}.scaled(0.05));
    std::vector<energy::Metrics> points;
    for (const SimulationRecord& r : engine.run_step1(study)) {
      points.push_back(r.metrics);
    }
    ASSERT_GT(points.size(), 1u);
    EXPECT_EQ(pareto_filter(points), brute_force_pareto(points));
  }
}

// Metrics can come from a cache file, so a NaN can reach the filter. The
// sort must stay well-defined (std::weak_order orders NaN), the result must
// be ascending distinct indices, and a point may be dropped only when some
// point dominates it. (NaN makes dominance intransitive, so kept points can
// dominate each other; no more than that is promised.)
TEST(ParetoFilter, NanCoordinatesKeepTheSortDefined) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  static constexpr double kReals[] = {-0.0, 0.0, 1.0, 2.5};
  support::Rng rng(0x4a4e);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<energy::Metrics> points(rng.uniform(1, 300));
    const auto real = [&] {
      if (!rng.chance(0.2)) return kReals[rng.uniform(0, 3)];
      return rng.chance(0.5) ? nan : -nan;
    };
    for (energy::Metrics& p : points) {
      p = point(real(), real(), rng.uniform(0, 3), rng.uniform(0, 3));
    }
    const std::vector<std::size_t> keep = pareto_filter(points);
    ASSERT_TRUE(std::is_sorted(keep.begin(), keep.end()));
    ASSERT_EQ(std::adjacent_find(keep.begin(), keep.end()), keep.end());
    ASSERT_TRUE(keep.empty() || keep.back() < points.size());
    std::vector<bool> kept(points.size(), false);
    for (std::size_t idx : keep) kept[idx] = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (kept[i]) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
        dominated = j != i && energy::dominates(points[j], points[i]);
      }
      EXPECT_TRUE(dominated) << "trial " << trial << ": dropped point " << i
                             << ", which nothing dominates";
    }
  }
}

TEST(ParetoFront2d, StaircaseShape) {
  std::vector<energy::Metrics> points = {
      point(1, 5, 0, 0), point(2, 3, 0, 0), point(3, 4, 0, 0),
      point(4, 1, 0, 0), point(5, 2, 0, 0),
  };
  const auto front = pareto_front_2d(points, 0, 1);  // energy vs time
  // Front: (1,5), (2,3), (4,1). (3,4) is beaten by (2,3); (5,2) by (4,1).
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], 0u);
  EXPECT_EQ(front[1], 1u);
  EXPECT_EQ(front[2], 3u);
}

TEST(ParetoFront2d, SortedByXAndDecreasingY_RandomProperty) {
  support::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<energy::Metrics> points;
    for (int i = 0; i < 120; ++i) {
      points.push_back(
          point(rng.uniform_real(0, 100), rng.uniform_real(0, 100),
                rng.uniform(0, 10), rng.uniform(0, 10)));
    }
    const auto front = pareto_front_2d(points, 0, 1);
    ASSERT_FALSE(front.empty());
    for (std::size_t k = 1; k < front.size(); ++k) {
      const auto prev = points[front[k - 1]].as_array();
      const auto cur = points[front[k]].as_array();
      EXPECT_LT(prev[0], cur[0]);  // strictly increasing x
      EXPECT_GT(prev[1], cur[1]);  // strictly decreasing y
    }
    // No point lies strictly below-left of any front point.
    for (const auto& m : points) {
      const auto v = m.as_array();
      for (std::size_t idx : front) {
        const auto fv = points[idx].as_array();
        EXPECT_FALSE(v[0] < fv[0] && v[1] < fv[1])
            << "front point (" << fv[0] << "," << fv[1] << ") dominated";
      }
    }
  }
}

TEST(ParetoFront2d, WorksOnOtherMetricPair) {
  std::vector<energy::Metrics> points = {
      point(0, 0, 100, 10), point(0, 0, 50, 20), point(0, 0, 200, 5),
      point(0, 0, 60, 30)};
  const auto front = pareto_front_2d(points, 2, 3);  // accesses vs footprint
  ASSERT_EQ(front.size(), 3u);  // (50,20),(100,10),(200,5); (60,30) off
  EXPECT_EQ(front[0], 1u);
  EXPECT_EQ(front[1], 0u);
  EXPECT_EQ(front[2], 2u);
}

TEST(TradeoffSpan, ComputesRelativeSpread) {
  std::vector<energy::Metrics> points = {point(1, 0, 0, 0),
                                         point(10, 0, 0, 0)};
  EXPECT_NEAR(tradeoff_span(points, 0), 0.9, 1e-12);
  EXPECT_EQ(tradeoff_span(points, 1), 0.0);  // all-zero metric
  EXPECT_EQ(tradeoff_span({}, 0), 0.0);
}

}  // namespace
}  // namespace ddtr::core
