// Warm-replay costs: what a daemon resubmit spends once every record is
// already in the daemon's in-memory simulation cache. One SimulationCache,
// one 1-lane pool and one PersistentSimulationCache over a scratch
// directory, handed to ExplorationEngine::explore like the daemon's, are
// warmed by a cold run of every registered study at DDTR_BENCH_SCALE;
// then, per study, the bench times
//   * SimulationCache::key_of over every (scenario, combination) pair,
//   * a warm explore() over that state (zero executed simulations and no
//     store, like `ddtr submit` against a warm daemon),
//   * the warm store_new() alone,
//   * serialized_records() of the warm report (the records a client gets),
//   * select_survivors() on the warm step-1 records,
//   * aggregate() plus pareto_filter() on the warm step-2 records,
//   * print_report() of the warm report into a string (the report a client
//     gets),
//   * encode plus decode of the warm result frame (the reply a client
//     gets: encode_result, encode_frame, decode_frame, decode_result),
// each as the median of several repetitions, and emits one BenchJson line.
// A set-up block also times, per study, a cold make_study from an empty
// net::TraceStore (trace synthesis and hashing, app construction) and
// Trace::content_hash per distinct trace, each the median of several
// repetitions. Exits 1 if a warm run executes a simulation or stores an
// entry, its records differ from the cold run's, a timed selection or
// aggregation disagrees with the warm report, or its result frame does
// not round-trip.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "core/pareto.h"
#include "core/persistent_cache.h"
#include "core/report.h"
#include "nettrace/trace_store.h"
#include "serve/protocol.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace {

using namespace ddtr;

constexpr int kRepetitions = 15;

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Median wall time of `body` over kRepetitions calls, in milliseconds.
template <typename Fn>
double median_ms(Fn&& body) {
  std::vector<double> samples;
  for (int i = 0; i < kRepetitions; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    samples.push_back(ms_since(t0));
  }
  return median(std::move(samples));
}

// Median content_hash() ms per distinct trace of `study`, hashing fresh
// copies (set_name drops the cached digest; only the hash is timed).
double content_hash_ms_per_trace(const core::CaseStudy& study) {
  std::vector<net::Trace> traces;
  std::set<const net::Trace*> seen;
  for (const core::Scenario& scenario : study.scenarios) {
    if (seen.insert(scenario.trace.get()).second) {
      traces.push_back(*scenario.trace);
    }
  }
  std::vector<double> samples;
  for (int i = 0; i < kRepetitions; ++i) {
    double total_ms = 0.0;
    for (net::Trace& trace : traces) {
      trace.set_name(trace.name());
      const auto t0 = std::chrono::steady_clock::now();
      trace.content_hash();
      total_ms += ms_since(t0);
    }
    samples.push_back(total_ms / static_cast<double>(traces.size()));
  }
  return median(std::move(samples));
}

// One encode + decode of `result` as the daemon's reply frame; false
// unless it round-trips.
bool frame_round_trip(const serve::ResultFrame& result) {
  const std::string wire = serve::encode_frame(
      {serve::FrameType::kResult, serve::encode_result(result)});
  std::istringstream in(wire);
  serve::Frame frame;
  serve::ResultFrame decoded;
  return serve::decode_frame(in, frame) == serve::DecodeStatus::kOk &&
         serve::decode_result(frame.payload, decoded) &&
         decoded.records == result.records;
}

}  // namespace

int main() {
  const energy::EnergyModel model = core::make_paper_energy_model();
  const core::ExplorationEngine engine(model);
  core::SimulationCache cache;
  support::ThreadPool pool(1);
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() /
      ("ddtr_bench_warm_replay_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);
  core::PersistentSimulationCache persistent(cache_dir.string());
  // One run over the warm state, like a daemon submit.
  const auto explore = [&](const core::CaseStudy& study) {
    return engine.explore(study, cache, pool, &persistent);
  };

  support::TextTable table({"Application", "keys", "key_of ns",
                            "warm run ms", "store us", "serialize ms",
                            "select us", "aggregate us", "report us",
                            "frame us", "record bytes"});
  support::TextTable setup_table(
      {"Application", "traces", "cold make_study ms", "content_hash ms/trace"});
  std::ostringstream apps_json;
  apps_json << '[';
  bool consistent = true;

  const std::vector<std::string> names = api::registry().names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    // Set-up: every repetition builds the study from an empty store.
    const double make_study_ms = median_ms([&] {
      net::TraceStore::global().clear();
      api::registry().make_study(names[a], bench::bench_options());
    });
    const core::CaseStudy study =
        api::registry().make_study(names[a], bench::bench_options());
    std::set<const net::Trace*> distinct;
    for (const core::Scenario& scenario : study.scenarios) {
      distinct.insert(scenario.trace.get());
    }
    const double hash_ms = content_hash_ms_per_trace(study);
    setup_table.add_row({study.name, std::to_string(distinct.size()),
                         support::format_double(make_study_ms, 2),
                         support::format_double(hash_ms, 3)});
    const std::string cold_records = explore(study).serialized_records();

    // key_of over the whole exhaustive space of the study.
    const auto combos = ddt::enumerate_combinations(study.slot_kind_sets());
    const double keys_ms = median_ms([&] {
      for (const core::Scenario& scenario : study.scenarios) {
        for (const ddt::DdtCombination& combo : combos) {
          core::SimulationCache::key_of(scenario, combo, model);
        }
      }
    });
    const std::size_t keys = study.scenarios.size() * combos.size();
    const double key_ns = keys_ms * 1e6 / static_cast<double>(keys);

    std::vector<double> run_samples;
    core::ExplorationReport warm;
    for (int i = 0; i < kRepetitions; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      core::ExplorationReport report = explore(study);
      run_samples.push_back(ms_since(t0));
      // Untimed: replacing `warm` frees the previous run's records.
      warm = std::move(report);
    }
    const double run_ms = median(std::move(run_samples));
    std::size_t stored = 0;
    const double store_us =
        median_ms([&] { stored += persistent.store_new(cache); }) * 1e3;
    std::string records;
    const double serialize_ms =
        median_ms([&] { records = warm.serialized_records(); });
    std::size_t survivors = 0;
    const double select_us =
        median_ms([&] {
          survivors = engine.select_survivors(warm.step1_records).size();
        }) * 1e3;
    std::size_t pareto = 0;
    const double aggregate_us =
        median_ms([&] {
          std::vector<energy::Metrics> points;
          for (const core::SimulationRecord& r :
               engine.aggregate(warm.step2_records)) {
            points.push_back(r.metrics);
          }
          pareto = core::pareto_filter(points).size();
        }) * 1e3;
    std::string printed;
    const double report_us =
        median_ms([&] {
          std::ostringstream os;
          core::print_report(os, warm, persistent.dir());
          printed = os.str();
        }) * 1e3;
    const serve::ResultFrame result{1, study.name,
                                    warm.executed_simulations(), printed,
                                    records};
    bool round_trips = true;
    const double frame_us =
        median_ms([&] { round_trips &= frame_round_trip(result); }) * 1e3;

    if (warm.executed_simulations() != 0 || warm.persistent_stored != 0 ||
        stored != 0 || records != cold_records || !round_trips ||
        survivors != warm.survivors.size() ||
        pareto != warm.pareto_optimal.size()) {
      std::cerr << "[ddtr] " << study.name << ": warm run executed "
                << warm.executed_simulations() << " simulations, stored "
                << warm.persistent_stored + stored
                << " entries, changed its records, survivors or front, or "
                   "broke its frame\n";
      consistent = false;
    }

    table.add_row({study.name, std::to_string(keys),
                   support::format_double(key_ns, 0),
                   support::format_double(run_ms, 3),
                   support::format_double(store_us, 2),
                   support::format_double(serialize_ms, 3),
                   support::format_double(select_us, 1),
                   support::format_double(aggregate_us, 1),
                   support::format_double(report_us, 1),
                   support::format_double(frame_us, 1),
                   std::to_string(records.size())});
    if (a > 0) apps_json << ',';
    apps_json << "{\"app\":\"" << study.name << "\",\"keys\":" << keys
              << ",\"key_of_ns\":" << key_ns << ",\"warm_run_ms\":" << run_ms
              << ",\"store_us\":" << store_us
              << ",\"serialize_ms\":" << serialize_ms
              << ",\"select_us\":" << select_us
              << ",\"aggregate_us\":" << aggregate_us
              << ",\"report_us\":" << report_us
              << ",\"frame_us\":" << frame_us
              << ",\"record_bytes\":" << records.size()
              << ",\"traces\":" << distinct.size()
              << ",\"make_study_ms\":" << make_study_ms
              << ",\"content_hash_ms_per_trace\":" << hash_ms << '}';
  }
  apps_json << ']';

  std::filesystem::remove_all(cache_dir);
  std::cout << "== Warm replay over one shared simulation cache and cache "
               "file (1 lane, median of "
            << kRepetitions << ") ==\n\n";
  table.print(std::cout);
  std::cout << "\n== Set-up: cold make_study from an empty trace store, "
               "content_hash per trace (median of "
            << kRepetitions << ") ==\n\n";
  setup_table.print(std::cout);
  std::cout << '\n';

  bench::BenchJson json("bench_warm_replay");
  json.field("repetitions", static_cast<std::uint64_t>(kRepetitions))
      .field("warm_entries", static_cast<std::uint64_t>(cache.size()))
      .field("consistent", consistent)
      .raw("apps", apps_json.str());
  json.emit();
  return consistent ? 0 : 1;
}
