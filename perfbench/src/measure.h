// Measurement plumbing of the ddtr benchmark: wall clocks, percentiles,
// process-memory readings, Kendall's tau, and LayerClock — the
// benchmark-side span recorder that turns nested calls into the program's
// layers into per-layer self times while mirroring every span into an
// obs::TraceWriter (so the same run also yields a checkable trace).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);

// Linearly interpolated quantile, q in [0, 1] (the "exclusive"-free form
// numpy calls linear); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// A field of /proc/self/status in KiB ("VmHWM", "VmSize"); 0 when absent.
std::uint64_t proc_status_kb(const char* field);

// Kendall's tau-b rank correlation of paired samples (ties handled); 0
// when fewer than two pairs or either side is constant.
double kendall_tau(const std::vector<double>& x, const std::vector<double>& y);

std::string hex64(std::uint64_t value);

// Records nested layer scopes from ONE thread. Each scope is an obs span
// (when a writer is given) and adds its self time — its duration minus the
// time covered by scopes nested inside it — to its layer's total. take()
// hands out the totals collected since the previous take(), so a caller
// can split them per unit.
class LayerClock {
 public:
  explicit LayerClock(ddtr::obs::TraceWriter* trace) : trace_(trace) {}
  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  class Scope {
   public:
    Scope(LayerClock& clock, const std::string& layer, const std::string& cat);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock& clock_;
  };

  std::map<std::string, double> take();

 private:
  struct Frame {
    std::string layer;
    std::string cat;
    Clock::time_point start;
    double child_ms = 0.0;
  };

  ddtr::obs::TraceWriter* trace_;
  std::vector<Frame> stack_;
  std::map<std::string, double> self_ms_;
};

}  // namespace perfbench
