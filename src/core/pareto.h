// Pareto machinery of the step-3 exploration: k-dimensional dominance
// filtering and 2-D front extraction for the metric-pair charts (execution
// time vs energy, memory accesses vs footprint). All metrics are
// smaller-is-better; a point is Pareto-optimal "if it is no longer possible
// to improve upon one cost factor without worsening any other" (paper §1).
#pragma once

#include <cstddef>
#include <vector>

#include "energy/metrics.h"

namespace ddtr::core {

// Indices of the points not dominated by any other point (4-D dominance
// over the full metric vector), in ascending order. Sorts the points
// lexicographically, then checks each against the points kept before it:
// O(n log n + n k) for k kept points.
std::vector<std::size_t> pareto_filter(
    const std::vector<energy::Metrics>& points);

// Indices of the 2-D Pareto front over metrics (x, y), sorted by ascending
// x. Metric indices follow energy::kMetricNames. Duplicate x keeps the
// lower y.
std::vector<std::size_t> pareto_front_2d(
    const std::vector<energy::Metrics>& points, std::size_t metric_x,
    std::size_t metric_y);

// Relative spread (max - min) / max of one metric across a point set; the
// "trade-off achievable among Pareto-optimal points" of the paper's
// Table 2. Returns 0 for empty input or an all-zero metric.
double tradeoff_span(const std::vector<energy::Metrics>& points,
                     std::size_t metric);

}  // namespace ddtr::core

