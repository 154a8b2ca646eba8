// The distributed-exploration subsystem (src/dist/ + the engine's shard
// mode): (a) dist::WorkPlan shard assignment is a partition — disjoint,
// covering — and stable across independently rebuilt studies (the
// process-restart / second-host case); (b) an N-shard run plus segment
// merge yields a coordinator report byte-identical to the serial run,
// with zero executed simulations; (c) merging overlapping or duplicate
// segments is idempotent; (d) worker-pool process supervision reaps only
// its own children; (e) concurrent fleets sharing one cache dir write
// distinct segment files. Plus the satellites: cache-file compaction and
// cooperative cancellation leaving a valid, loadable segment.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "api/ddtr.h"
#include "core/persistent_cache.h"
#include "core/simulation_cache.h"
#include "dist/cache_inspect.h"
#include "dist/segment_merger.h"
#include "dist/work_plan.h"
#include "dist/worker_pool.h"

namespace ddtr::dist {
namespace {

core::CaseStudyOptions tiny_options() {
  core::CaseStudyOptions options;
  options.route_packets = 200;
  options.url_packets = 200;
  options.ipchains_packets = 200;
  options.drr_packets = 200;
  return options;
}

core::CaseStudy tiny_url_study() {
  core::CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);  // keep the single-core test budget small
  return study;
}

// A unique empty scratch directory per test.
class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ddtr_dist_") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST(WorkPlan, ShardAssignmentIsDisjointAndCovering) {
  const core::CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = core::make_paper_energy_model();
  const std::size_t shards = 3;
  const WorkPlan plan(study, model, shards);

  // Every (scenario x combination) unit of the study is enumerated...
  ASSERT_EQ(plan.units().size(),
            study.scenarios.size() * study.combination_count());

  // ...and lands in exactly one shard: the shard_units lists are disjoint
  // and together cover the whole unit space.
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t idx : plan.shard_units(shard)) {
      EXPECT_EQ(plan.shard_of(plan.units()[idx]), shard);
      EXPECT_TRUE(seen.insert(idx).second) << "unit in two shards";
      ++total;
    }
  }
  EXPECT_EQ(total, plan.units().size());

  // No shard is starved on a 200-unit space (FNV spreads keys evenly
  // enough that an empty shard would indicate a broken assignment).
  for (std::size_t shard = 0; shard < shards; ++shard) {
    EXPECT_FALSE(plan.shard_units(shard).empty());
  }
}

TEST(WorkPlan, StableAcrossIndependentlyRebuiltStudies) {
  // Two processes (or hosts) never exchange plans — each rebuilds the
  // study and must arrive at identical unit keys and assignments. Model
  // that by building everything twice from the registry.
  const energy::EnergyModel model = core::make_paper_energy_model();
  const WorkPlan first(tiny_url_study(), model, 4);
  const WorkPlan second(tiny_url_study(), model, 4);

  ASSERT_EQ(first.units().size(), second.units().size());
  for (std::size_t i = 0; i < first.units().size(); ++i) {
    EXPECT_EQ(first.units()[i].key, second.units()[i].key);
    EXPECT_EQ(first.shard_of(first.units()[i]),
              second.shard_of(second.units()[i]));
  }
  // And the assignment is the engine's: core::shard_of_key.
  for (const WorkUnit& unit : first.units()) {
    EXPECT_EQ(first.shard_of(unit), core::shard_of_key(unit.key, 4));
  }
}

TEST(WorkerPool, DoesNotReapForeignChildren) {
  // A host program's own child (the decoy) must survive the coordinator's
  // wait loop: waitpid(-1, ...) would steal its exit status.
  const pid_t decoy = fork();
  ASSERT_GE(decoy, 0);
  if (decoy == 0) _exit(42);

  const std::vector<ProcessResult> results =
      run_worker_processes({{"/bin/sh", "-c", "exit 0"}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());

  // The decoy (long since a zombie) is still reapable by its parent.
  int status = -1;
  EXPECT_EQ(waitpid(decoy, &status, 0), decoy);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42);
}

TEST_F(DistTest, TwoFleetsSharingOneDirWriteDistinctSegments) {
  // Two fleets, SAME shard geometry, one cache directory, all four
  // workers concurrent: per-run segment tokens must keep every writer in
  // its own file (same-path appends interleave frames — the multi-writer
  // corruption), and the merged result must still replay byte-identical.
  const core::CaseStudy study = tiny_url_study();
  api::Exploration serial(study);
  const std::string serial_bytes = serial.run().serialized_records();

  // Hold every worker at its first progress tick (fired after the cold
  // persistent load) so none can observe another's store: all four must
  // then store records themselves — and must do so into FOUR distinct
  // files (pre-fix, same geometry meant at most two shared paths).
  std::latch all_loaded(4);
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> stored(4, 0);
  for (std::size_t fleet = 0; fleet < 2; ++fleet) {
    for (std::size_t s = 0; s < 2; ++s) {
      threads.emplace_back([&, fleet, s] {
        api::Exploration worker(tiny_url_study());
        worker.cache_dir(dir_).shard(s, 2).on_progress(
            [&](const core::StepProgress& p) {
              if (p.step == 1 && p.done == 0) all_loaded.arrive_and_wait();
            });
        stored[fleet * 2 + s] = worker.run().persistent_stored;
      });
    }
  }
  for (std::thread& t : threads) t.join();

  std::uint64_t stored_total = 0;
  for (std::uint64_t count : stored) {
    EXPECT_GT(count, 0u);
    stored_total += count;
  }
  core::PersistentSimulationCache probe(dir_);
  EXPECT_EQ(probe.segment_paths().size(), 4u);  // one file per writer
  EXPECT_FALSE(std::filesystem::exists(probe.file_path()));
  EXPECT_TRUE(verify_cache(dir_).ok());
  // Nothing clobbered: every stored frame is intact (the fleets overlap
  // key-wise, so distinct entries dedupe; distinct + superseded must
  // account for every frame the four writers stored).
  const std::size_t distinct = probe.load();
  EXPECT_EQ(distinct + probe.load_stats().superseded, stored_total);

  api::Exploration coordinator(study);
  const core::ExplorationReport& report = coordinator.cache_dir(dir_).run();
  EXPECT_EQ(report.executed_simulations(), 0u);
  EXPECT_EQ(report.serialized_records(), serial_bytes);
}

TEST_F(DistTest, ShardedRunsPlusMergeMatchSerialByteForByte) {
  const core::CaseStudy study = tiny_url_study();

  // The ground truth: one plain single-process run, no cache.
  api::Exploration serial(study);
  const std::string serial_bytes = serial.run().serialized_records();

  // N manual shard workers (the cross-host recipe: same study, same
  // flags, a shared cache directory, disjoint --shard values).
  const std::size_t shards = 2;
  std::size_t stored_total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    api::Exploration worker(study);
    const core::ExplorationReport& report =
        worker.cache_dir(dir_).shard(s, shards).run();
    EXPECT_EQ(report.shard_index, s);
    EXPECT_EQ(report.shard_count, shards);
    EXPECT_FALSE(report.cancelled);
    stored_total += report.persistent_stored;
  }
  // Workers wrote disjoint segments — and never the shared main file
  // (the concurrent-writer fix).
  core::PersistentSimulationCache probe(dir_);
  EXPECT_FALSE(std::filesystem::exists(probe.file_path()));
  EXPECT_EQ(probe.segment_paths().size(), shards);

  // Merge consolidates the segments into a compacted main file.
  const MergeStats merged = SegmentMerger::merge(dir_);
  EXPECT_EQ(merged.segment_files, shards);
  EXPECT_EQ(merged.entries, stored_total);  // segments were disjoint
  EXPECT_TRUE(std::filesystem::exists(probe.file_path()));
  EXPECT_TRUE(probe.segment_paths().empty());

  // The coordinator pass replays everything: zero executed simulations,
  // byte-identical report.
  api::Exploration coordinator(study);
  const core::ExplorationReport& report = coordinator.cache_dir(dir_).run();
  EXPECT_EQ(report.executed_simulations(), 0u);
  EXPECT_EQ(report.persistent_loaded, merged.entries);
  EXPECT_EQ(report.serialized_records(), serial_bytes);
}

TEST_F(DistTest, CoordinatorReplaysUnmergedSegmentsToo) {
  // Merge-on-load: the explicit merge is tidiness, not a prerequisite.
  const core::CaseStudy study = tiny_url_study();
  api::Exploration serial(study);
  const std::string serial_bytes = serial.run().serialized_records();

  for (std::size_t s = 0; s < 2; ++s) {
    api::Exploration worker(study);
    worker.cache_dir(dir_).shard(s, 2).run();
  }
  api::Exploration coordinator(study);
  const core::ExplorationReport& report = coordinator.cache_dir(dir_).run();
  EXPECT_EQ(report.executed_simulations(), 0u);
  EXPECT_EQ(report.serialized_records(), serial_bytes);
}

TEST_F(DistTest, ShardRequiresCacheDir) {
  api::Exploration sharded(tiny_url_study());
  sharded.shard(0, 2);
  EXPECT_THROW(sharded.run(), std::invalid_argument);
}

TEST_F(DistTest, MergingOverlappingSegmentsIsIdempotent) {
  const core::CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = core::make_paper_energy_model();
  const core::Scenario& scenario = study.scenarios.front();
  const ddt::DdtCombination c1({ddt::DdtKind::kArray, ddt::DdtKind::kSll});
  const ddt::DdtCombination c2({ddt::DdtKind::kDll, ddt::DdtKind::kSll});
  const ddt::DdtCombination c3({ddt::DdtKind::kSll, ddt::DdtKind::kArray});

  // Two writers whose segments OVERLAP on c2 (both loaded before either
  // stored — the concurrent cold-start shape).
  core::SimulationCache cache_a;
  cache_a.get_or_simulate(scenario, c1, model);
  cache_a.get_or_simulate(scenario, c2, model);
  core::SimulationCache cache_b;
  cache_b.get_or_simulate(scenario, c2, model);
  cache_b.get_or_simulate(scenario, c3, model);

  core::PersistentSimulationCache writer_a(dir_);
  writer_a.set_segment("a");
  core::PersistentSimulationCache writer_b(dir_);
  writer_b.set_segment("b");
  EXPECT_EQ(writer_a.load(), 0u);
  EXPECT_EQ(writer_b.load(), 0u);
  EXPECT_EQ(writer_a.store_new(cache_a), 2u);
  EXPECT_EQ(writer_b.store_new(cache_b), 2u);

  // First merge: 4 stored entries collapse to 3 distinct keys.
  const MergeStats first = SegmentMerger::merge(dir_);
  EXPECT_EQ(first.segment_files, 2u);
  EXPECT_EQ(first.entries, 3u);
  EXPECT_EQ(first.duplicates_dropped, 1u);

  // Second merge: nothing left to fold — same entries, same bytes.
  const auto main_path = core::PersistentSimulationCache(dir_).file_path();
  const auto bytes_after_first = std::filesystem::file_size(main_path);
  const MergeStats second = SegmentMerger::merge(dir_);
  EXPECT_EQ(second.segment_files, 0u);
  EXPECT_EQ(second.entries, 3u);
  EXPECT_EQ(second.duplicates_dropped, 0u);
  EXPECT_EQ(std::filesystem::file_size(main_path), bytes_after_first);
}

TEST_F(DistTest, CompactDropsSupersededDuplicates) {
  // Two cold-start sessions append the SAME record to the main file (the
  // benign duplicate-append path) — compact() folds them to one frame.
  const core::CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = core::make_paper_energy_model();
  core::SimulationCache cache;
  cache.get_or_simulate(study.scenarios.front(),
                        ddt::DdtCombination(
                            {ddt::DdtKind::kArray, ddt::DdtKind::kSll}),
                        model);

  core::PersistentSimulationCache first(dir_);
  core::PersistentSimulationCache second(dir_);
  EXPECT_EQ(first.load(), 0u);
  EXPECT_EQ(second.load(), 0u);
  EXPECT_EQ(first.store_new(cache), 1u);
  EXPECT_EQ(second.store_new(cache), 1u);  // duplicate frame appended

  core::PersistentSimulationCache probe(dir_);
  EXPECT_EQ(probe.load(), 1u);
  EXPECT_EQ(probe.load_stats().superseded, 1u);
  const auto before = std::filesystem::file_size(probe.file_path());
  EXPECT_EQ(probe.compact(), 1u);
  EXPECT_LT(std::filesystem::file_size(probe.file_path()), before);

  core::PersistentSimulationCache reread(dir_);
  EXPECT_EQ(reread.load(), 1u);
  EXPECT_EQ(reread.load_stats().superseded, 0u);
}

TEST_F(DistTest, CancelledRunLeavesLoadableSegmentAndResumes) {
  const core::CaseStudy study = tiny_url_study();
  api::Exploration plain(study);
  const std::string serial_bytes = plain.run().serialized_records();

  // Cancel from the progress observer after a handful of simulations —
  // the cooperative-cancellation path a SIGTERM handler also takes.
  api::Exploration cancelled(study);
  cancelled.cache_dir(dir_).shard(0, 2).on_progress(
      [&](const core::StepProgress& p) {
        if (p.done >= 5) cancelled.cancel();
      });
  const core::ExplorationReport& report = cancelled.run();
  EXPECT_TRUE(report.cancelled);
  EXPECT_GT(report.skipped_after_cancel, 0u);
  EXPECT_LT(report.executed_simulations(), study.combination_count());

  // The checkpointed segment is valid and loadable...
  const VerifyReport verify = verify_cache(dir_);
  EXPECT_TRUE(verify.ok());
  core::PersistentSimulationCache probe(dir_);
  EXPECT_EQ(probe.load(), report.persistent_stored);

  // ...and a follow-up full run resumes from it, replaying what the
  // cancelled worker managed to execute and landing on the serial bytes.
  api::Exploration resumed(study);
  const core::ExplorationReport& final_report =
      resumed.cache_dir(dir_).run();
  EXPECT_FALSE(final_report.cancelled);
  EXPECT_EQ(final_report.persistent_loaded, report.persistent_stored);
  EXPECT_EQ(final_report.serialized_records(), serial_bytes);
}

TEST_F(DistTest, InspectAndClearCoverMainAndSegments) {
  const core::CaseStudy study = tiny_url_study();
  for (std::size_t s = 0; s < 2; ++s) {
    api::Exploration worker(study);
    worker.cache_dir(dir_).shard(s, 2).run();
  }
  const CacheStats stats = inspect_cache(dir_);
  EXPECT_EQ(stats.files, 2u);  // two segments, no main file yet
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.bytes, 0u);
  ASSERT_EQ(stats.apps.size(), 1u);
  EXPECT_EQ(stats.apps.front().first, study.scenarios.front().app->name());
  ASSERT_EQ(stats.model_fingerprints.size(), 1u);

  EXPECT_EQ(clear_cache(dir_), 2u);
  EXPECT_EQ(inspect_cache(dir_).entries, 0u);
}

}  // namespace
}  // namespace ddtr::dist
