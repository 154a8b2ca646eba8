// Scaling of the distributed (sharded) exploration flow on the URL case
// study: wall clock of the whole pipeline at workers = 1/2/4 — N
// shard(i, N) sessions on N threads, a dist::SegmentMerger merge, then an
// unsharded coordinator replay — the coordinator's executed-simulation
// count (0 for every sharded run: the merged segments cover the full unit
// space), and a byte-identical check against the plain serial run.
// workers = 1 is a plain cold cached run.
//
// Note: every shard worker replicates step 1 (the seed of the shared
// survivor selection) and only step 2 splits, so on one machine the
// sharded runs pay that replication without a matching step-2 win —
// jobs(N) is the single-host lever. The shard fan-out pays off across
// hosts, via `ddtr explore --shard I/N`.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dist/segment_merger.h"
#include "support/table.h"

namespace {

using namespace ddtr;

std::string scratch_dir(std::size_t workers) {
  return (std::filesystem::temp_directory_path() /
          ("ddtr_bench_shard_w" + std::to_string(workers)))
      .string();
}

// One distributed run: `workers` shard sessions on as many threads, the
// segment merge, then the coordinator pass whose report is returned.
core::ExplorationReport run_fleet(const core::CaseStudy& study,
                                  std::size_t workers,
                                  const std::string& dir) {
  if (workers > 1) {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < workers; ++s) {
      threads.emplace_back([&study, s, workers, &dir] {
        api::Exploration worker(study);
        worker.cache_dir(dir).shard(s, workers).run();
      });
    }
    for (std::thread& t : threads) t.join();
    dist::SegmentMerger::merge(dir);
  }
  api::Exploration coordinator(study);
  return coordinator.cache_dir(dir).run();
}

}  // namespace

int main() {
  const core::CaseStudy study =
      api::registry().make_study("url", bench::bench_options());
  std::cerr << "[ddtr] URL study: " << study.scenarios.size()
            << " configurations, " << study.combination_count()
            << " combinations, scale " << bench::bench_scale()
            << ", hardware threads "
            << std::thread::hardware_concurrency() << "\n";

  // The serial ground truth every sharded run must reproduce.
  api::Exploration serial(study);
  const auto serial_t0 = std::chrono::steady_clock::now();
  const std::string serial_bytes = serial.run().serialized_records();
  const double serial_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serial_t0)
          .count();

  support::TextTable table({"workers", "seconds", "speedup",
                            "coordinator executed", "identical to serial"});
  std::ostringstream results_json;
  results_json << '[';
  // The bench doubles as the only CI exercise of 4-way sharding: a
  // broken byte-identity or a coordinator that executes anything must
  // fail the run, not just print a sad table.
  bool all_ok = true;

  const std::vector<std::size_t> sweep = {1, 2, 4};
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::size_t workers = sweep[i];
    const std::string dir = scratch_dir(workers);
    std::filesystem::remove_all(dir);

    const auto t0 = std::chrono::steady_clock::now();
    const core::ExplorationReport report = run_fleet(study, workers, dir);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    const bool identical = report.serialized_records() == serial_bytes;
    const double speedup = seconds > 0.0 ? serial_seconds / seconds : 0.0;
    // workers=1 is a plain cold cached run (executes everything); every
    // sharded run's coordinator pass must execute nothing.
    const std::size_t executed = report.executed_simulations();
    if (!identical || (workers > 1 && executed != 0)) all_ok = false;

    table.add_row({std::to_string(workers),
                   support::format_double(seconds, 3),
                   support::format_double(speedup, 2),
                   std::to_string(executed), identical ? "yes" : "NO"});

    if (i > 0) results_json << ',';
    results_json << "{\"workers\":" << workers << ",\"seconds\":" << seconds
                 << ",\"speedup\":" << speedup
                 << ",\"coordinator_executed\":" << executed
                 << ",\"persistent_loaded\":" << report.persistent_loaded
                 << ",\"identical\":" << (identical ? "true" : "false")
                 << '}';
    std::filesystem::remove_all(dir);
  }
  results_json << ']';

  std::cout << "== Distributed shard scaling (URL) ==\n\n";
  table.print(std::cout);
  std::cout << '\n';

  bench::BenchJson json("bench_shard_scaling");
  json.field("app", std::string("URL"))
      .field("serial_seconds", serial_seconds)
      .field("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .raw("results", results_json.str());
  json.emit();
  if (!all_ok) {
    std::cerr << "[ddtr] FAIL: a sharded run diverged from the serial "
                 "baseline or executed simulations in the coordinator\n";
    return 1;
  }
  return 0;
}
