// ddtr_perfbench: the repository's benchmark runner. One process runs one
// workload (see workloads.h) as a closed loop for a fixed window and prints
// one JSON result as its last stdout line:
//
//   ddtr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--units U] [--trace-file PATH]
//
// --trace 0 reports the end-to-end metrics of untraced units; --trace 1
// alternates traced and untraced units, runs the probes and reports the
// per-layer metrics. --units caps the unit count (the self-check runs one
// or two). Run it from an empty scratch directory: workloads create their
// cache directories and sockets relative to the working directory.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ddt/kinds.h"
#include "measure.h"
#include "obs/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_GIT_SHA
#define PERFBENCH_GIT_SHA "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS ""
#endif

namespace {

using namespace perfbench;

// Set-up is repeated and its median reported, so work moved into set-up
// shows; cheap set-ups repeat more often, up to this budget.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;
// Largest share of a traced unit's wall time that no layer span may cover.
constexpr double kMaxRemainderFrac = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t max_units = 0;  // 0 = no cap
  std::string trace_file;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

int usage(const std::string& problem) {
  std::cerr << "ddtr_perfbench: " << problem << "\n"
            << "usage: ddtr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--units U] [--trace-file PATH]\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

bool parse_args(int argc, char** argv, Args& args, std::string& problem) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      problem = flag + " requires a value";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--units") {
        args.max_units = std::stoull(value);
      } else if (flag == "--trace-file") {
        args.trace_file = value;
      } else {
        problem = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      problem = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args.workload.empty()) problem = "--workload is required";
  if (!(args.seconds >= 0.0) || !std::isfinite(args.seconds)) {
    problem = "--seconds must be a finite non-negative number";
  }
  return problem.empty();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

// Quantile q of the passing units' wall times, taken per study and
// averaged over the studies, so a run's figure does not depend on where
// the studies' boundaries fall in one pooled sample.
double percentile_by_mode(const std::vector<UnitOutcome>& units, double q) {
  std::map<std::size_t, std::vector<double>> by_mode;
  for (const UnitOutcome& unit : units) {
    if (unit.failure.empty()) by_mode[unit.mode].push_back(unit.ms);
  }
  std::vector<double> per_mode;
  for (const auto& [mode, times] : by_mode) {
    per_mode.push_back(quantile(times, q));
  }
  return mean(per_mode);
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const std::vector<UnitOutcome>& units) {
  return {
      {"setup_s", "s", median(setup_s)},
      {"explore_p50_ms", "ms", percentile_by_mode(units, 0.5)},
      {"rss_peak_mb", "MB",
       static_cast<double>(proc_status_kb("VmHWM")) / 1024.0},
  };
}

// Every per-layer metric a traced run reports, with its unit. Samples
// come from the traced units when they called the layer, else from the
// probes; kernel times are means per run, the rest medians per unit.
std::vector<Metric> per_layer_metrics(const Traced& traced,
                                      const std::vector<UnitOutcome>& plain,
                                      const std::vector<UnitOutcome>& traced_units,
                                      std::vector<std::string>& missing) {
  const auto samples_of = [&](const std::string& name) {
    const auto unit_it = traced.units.find(name);
    if (unit_it != traced.units.end()) return unit_it->second;
    const auto probe_it = traced.probes.find(name);
    if (probe_it != traced.probes.end()) return probe_it->second;
    missing.push_back(name);
    return std::vector<double>{};
  };
  std::vector<Metric> out;
  const auto med = [&](const std::string& name, const std::string& unit) {
    out.push_back({name, unit, median(samples_of(name))});
  };
  const auto avg = [&](const std::string& name, const std::string& unit) {
    out.push_back({name, unit, mean(samples_of(name))});
  };

  med("nettrace.build_ms", "ms");
  for (const std::string& app : kApps) avg("apps.run_ms." + app, "ms");
  for (const std::string& app : kApps) {
    // Per unit that explored the app; 0 when no unit did.
    std::vector<double> executed;
    for (const auto* units : {&plain, &traced_units}) {
      for (const UnitOutcome& unit : *units) {
        const auto it = unit.executed.find(app);
        if (it != unit.executed.end()) {
          executed.push_back(static_cast<double>(it->second));
        }
      }
    }
    out.push_back({"apps.executed." + app, "count", median(executed)});
  }
  for (const ddtr::ddt::DdtKind kind : ddtr::ddt::kAllDdtKinds) {
    avg("ddt.keyed_slot_ms." +
            kind_metric_name(std::string(ddtr::ddt::to_string(kind))),
        "ms");
  }
  for (const std::string& app : kApps) med("ddt.rank_tau." + app, "tau");
  med("energy.evaluate_ns", "ns");
  med("core.cache.key_ns", "ns");
  med("core.cache.lookup_ns", "ns");
  {
    const std::vector<double> hits = samples_of("core.cache.hits");
    const std::vector<double> misses = samples_of("core.cache.misses");
    const double h = std::accumulate(hits.begin(), hits.end(), 0.0);
    const double m = std::accumulate(misses.begin(), misses.end(), 0.0);
    out.push_back({"core.cache.hit_ratio", "ratio",
                   h + m > 0.0 ? h / (h + m) : 0.0});
    out.push_back({"core.cache.hits", "count", median(hits)});
    out.push_back({"core.cache.misses", "count", median(misses)});
  }
  med("core.pcache.load_ms", "ms");
  med("core.pcache.load_entries", "count");
  med("core.pcache.file_bytes", "bytes");
  med("core.pcache.store_ms", "ms");
  med("core.pcache.store_entries", "count");
  for (const char* step : {"step1", "select", "step2", "aggregate",
                           "serialize"}) {
    med(std::string("core.") + step + "_ms", "ms");
  }
  med("support.pool.busy_frac", "ratio");
  med("serve.connect_ms", "ms");
  med("serve.submit_ms", "ms");
  med("serve.result_bytes", "bytes");
  med("serve.codec_us", "us");
  med("serve.vm_kb_per_conn", "KB");
  const double traced_ms = percentile_by_mode(traced_units, 0.5);
  const double plain_ms = percentile_by_mode(plain, 0.5);
  out.push_back({"trace.unit_ms", "ms", traced_ms});
  out.push_back({"trace.untraced_unit_ms", "ms", plain_ms});
  out.push_back({"trace.untraced_unit_p90_ms", "ms",
                 percentile_by_mode(plain, 0.9)});
  out.push_back({"trace.overhead_frac", "ratio",
                 plain_ms > 0.0 ? traced_ms / plain_ms - 1.0 : 0.0});
  med("trace.remainder_frac", "ratio");
  out.push_back({"oracle.replayed", "count",
                 static_cast<double>(traced.replayed)});
  return out;
}

void print_provenance(const Args& args, const Workload& workload,
                      std::size_t units) {
  std::ostringstream os;
  os << "{\"provenance\":{\"workload\":\"" << workload.name()
     << "\",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"meta\":{\"git_sha\":\"" << json_escape(PERFBENCH_GIT_SHA)
     << "\",\"compiler\":\"" << json_escape(compiler_id())
     << "\",\"flags\":\"" << json_escape(PERFBENCH_BUILD_FLAGS)
     << "\",\"hw_threads\":" << std::thread::hardware_concurrency()
     << ",\"accounting_version\":" << ddtr::ddt::kDdtAccountingVersion
     << "},\"nproc\":" << nproc() << ",\"lanes\":" << workload.lanes()
     << ",\"scale\":1,\"seed\":" << args.seed
     << ",\"seed_offset\":" << workload.offset() << ",\"units\":" << units << ",\"seconds\":" << number(args.seconds)
     << "}}";
  std::cout << os.str() << '\n';
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) return usage("unknown workload '" + args.workload + "'");

  ddtr::obs::TraceWriter writer;
  std::unique_ptr<Traced> traced;
  if (args.trace) traced = std::make_unique<Traced>(&writer);

  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    const auto start = Clock::now();
    workload->setup();
    setup_s.push_back(ms_since(start) / 1000.0);
    setup_total_s += setup_s.back();
  }

  // The closed loop. A traced run alternates traced and untraced units on
  // the same slot, so the pair does the same work and their difference is
  // the tracing overhead.
  std::vector<UnitOutcome> plain, traced_units;
  std::size_t failed = 0;
  const auto window = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (args.max_units > 0 && i >= args.max_units) break;
    if (i >= workload->min_units() * (traced ? 2 : 1) &&
        ms_since(window) >= args.seconds * 1e3) {
      break;
    }
    const bool trace_this = traced && i % 2 == 0;
    const std::size_t slot = traced ? i / 2 : i;
    UnitOutcome outcome;
    const auto start = Clock::now();
    try {
      outcome = trace_this ? workload->traced_unit(slot, *traced)
                           : workload->unit(slot);
    } catch (const std::exception& error) {
      outcome.failure = error.what();
      outcome.ms = ms_since(start);
    }
    if (!outcome.failure.empty()) {
      if (failed < 5) std::cerr << "unit " << i << " failed: " << outcome.failure << '\n';
      ++failed;
    }
    (trace_this ? traced_units : plain).push_back(std::move(outcome));
  }
  const std::size_t attempted = plain.size() + traced_units.size();

  std::vector<Metric> metrics;
  bool correct = failed == 0;
  if (traced) {
    workload->probe(*traced);
    measure_shared_layers(*workload, *traced);
    std::vector<std::string> missing;
    metrics = per_layer_metrics(*traced, plain, traced_units, missing);
    for (const std::string& name : missing) {
      std::cerr << "no samples for per-layer metric " << name << '\n';
      correct = false;
    }
    for (const std::string& mismatch : traced->mismatches) {
      std::cerr << "oracle mismatch: " << mismatch << '\n';
      correct = false;
    }
    // The layer spans must account for the traced units' wall time.
    for (const Metric& metric : metrics) {
      if (metric.name == "trace.remainder_frac" &&
          metric.value > kMaxRemainderFrac) {
        std::cerr << "layer spans miss " << number(metric.value)
                  << " of the traced unit wall time (limit "
                  << number(kMaxRemainderFrac) << ")\n";
        correct = false;
      }
    }
    const std::string json = writer.str();
    const std::string problem = ddtr::obs::check_trace(json);
    if (!args.trace_file.empty()) {
      std::ofstream(args.trace_file) << json;
    }
    std::cout << "trace: " << writer.event_count() << " events, check_trace "
              << (problem.empty() ? "OK" : problem) << '\n'
              << "oracle: " << traced->replayed << " kernel replays, "
              << traced->mismatches.size() << " mismatches\n";
    if (!problem.empty()) correct = false;
  } else {
    metrics = end_to_end_metrics(setup_s, plain);
  }

  print_provenance(args, *workload, attempted);
  for (const auto& [key, digest] : workload->digests()) {
    std::cout << "digest " << key << ' ' << hex64(digest) << '\n';
  }
  std::cout << "units " << attempted << " failed " << failed << " fail_frac "
            << number(attempted ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 0.0)
            << '\n';
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << number(metric.value) << ' '
              << metric.unit << '\n';
  }

  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string problem;
  if (!parse_args(argc, argv, args, problem)) return usage(problem);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "ddtr_perfbench: " << error.what() << '\n';
    return 1;
  }
}
