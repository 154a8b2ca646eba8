#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

double kendall_tau(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  double concordant = 0.0, discordant = 0.0, ties_x = 0.0, ties_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0.0 && dy == 0.0) continue;
      if (dx == 0.0) {
        ties_x += 1.0;
      } else if (dy == 0.0) {
        ties_y += 1.0;
      } else if ((dx > 0.0) == (dy > 0.0)) {
        concordant += 1.0;
      } else {
        discordant += 1.0;
      }
    }
  }
  const double denom = std::sqrt((concordant + discordant + ties_x) *
                                 (concordant + discordant + ties_y));
  return denom > 0.0 ? (concordant - discordant) / denom : 0.0;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

LayerClock::Scope::Scope(LayerClock& clock, const std::string& layer,
                         const std::string& cat)
    : clock_(clock) {
  if (clock_.trace_ != nullptr) clock_.trace_->begin(layer, cat);
  clock_.stack_.push_back({layer, cat, Clock::now(), 0.0});
}

LayerClock::Scope::~Scope() {
  Frame frame = std::move(clock_.stack_.back());
  clock_.stack_.pop_back();
  const double total = ms_since(frame.start);
  clock_.self_ms_[frame.layer] += total - frame.child_ms;
  if (!clock_.stack_.empty()) clock_.stack_.back().child_ms += total;
  if (clock_.trace_ != nullptr) clock_.trace_->end(frame.layer, frame.cat);
}

std::map<std::string, double> LayerClock::take() {
  std::map<std::string, double> out;
  out.swap(self_ms_);
  return out;
}

}  // namespace perfbench
