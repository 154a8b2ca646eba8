#include "core/pareto.h"

#include <algorithm>
#include <array>
#include <compare>
#include <limits>

namespace ddtr::core {

std::vector<std::size_t> pareto_filter(
    const std::vector<energy::Metrics>& points) {
  // Sort-based maxima (Kung, Luccio & Preparata, 1975). On finite input,
  // lexicographic order puts a dominator before what it dominates, and
  // dominance is transitive, so a point is dominated by some point iff it
  // is dominated by an earlier kept one. std::weak_order ranks -0.0 with
  // +0.0, as dominates() does, and keeps the sort's order a strict weak
  // one even when a metric read from a cache file is NaN.
  std::vector<std::array<double, energy::kMetricCount>> values;
  values.reserve(points.size());
  for (const energy::Metrics& p : points) values.push_back(p.as_array());
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
      const std::weak_ordering c = std::weak_order(values[a][m], values[b][m]);
      if (c != 0) return c < 0;
    }
    return a < b;
  });

  std::vector<std::size_t> kept;
  for (std::size_t i : order) {
    if (std::none_of(kept.begin(), kept.end(), [&](std::size_t k) {
          return energy::dominates(values[k], values[i]);
        })) {
      kept.push_back(i);
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

std::vector<std::size_t> pareto_front_2d(
    const std::vector<energy::Metrics>& points, std::size_t metric_x,
    std::size_t metric_y) {
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto va = points[a].as_array();
    const auto vb = points[b].as_array();
    if (va[metric_x] != vb[metric_x]) return va[metric_x] < vb[metric_x];
    return va[metric_y] < vb[metric_y];
  });

  std::vector<std::size_t> front;
  double best_y = std::numeric_limits<double>::infinity();
  double last_x = -std::numeric_limits<double>::infinity();
  for (std::size_t idx : order) {
    const auto v = points[idx].as_array();
    if (v[metric_y] < best_y) {
      if (!front.empty() && v[metric_x] == last_x) continue;  // same x, worse y
      front.push_back(idx);
      best_y = v[metric_y];
      last_x = v[metric_x];
    }
  }
  return front;
}

double tradeoff_span(const std::vector<energy::Metrics>& points,
                     std::size_t metric) {
  if (points.empty()) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const energy::Metrics& m : points) {
    const double v = m.as_array()[metric];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= 0.0) return 0.0;
  return (hi - lo) / hi;
}

}  // namespace ddtr::core
