// Content-identity cache keys and the persistent cross-run simulation
// cache: key soundness (same labels + different trace content must NOT
// hit; different cost models must not hit), the warm-rerun contract
// (zero executed simulations, byte-identical report), round-trips through
// the cache file, tolerance of corrupt / truncated / stale-version
// files, including a seeded byte-level corruption sweep, `ddtr cache`
// inspection, directories left by older versions that still hold
// per-writer segment files, byte-identity of the keys with their old
// stream-formatted form under any global locale, and the one writer:
// store_new() writing only entries not yet persisted (the key set from
// seed() alone) and skipping a synced cache until it inserts, files
// sorted and independent of store history, an older version's appended
// file normalized by one store, concurrent writers keeping each other's
// entries, no temp file left behind, and the exact bytes of one stored
// frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <locale>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "api/ddtr.h"
#include "comma_locale.h"
#include "core/persistent_cache.h"
#include "core/simulation_cache.h"
#include "support/fnv_hash.h"
#include "support/rng.h"

namespace ddtr::core {
namespace {

CaseStudyOptions tiny_options() {
  CaseStudyOptions options;
  options.packets = 200;
  return options;
}

CaseStudy tiny_url_study() {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);  // keep the single-core test budget small
  return study;
}

// A unique empty scratch directory per test and process.
class PersistentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ddtr_cache_" + std::to_string(::getpid()) + "_" +
             info->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Simulates one (scenario, combination) into `cache` the way the engine
// records a miss; returns the record.
SimulationRecord cache_simulation(SimulationCache& cache,
                                  const Scenario& scenario,
                                  const ddt::DdtCombination& combo,
                                  const energy::EnergyModel& model) {
  SimulationRecord record = simulate(scenario, combo, model);
  cache.insert(SimulationCache::key_of(scenario, combo, model), record);
  return record;
}

ExplorationReport explore_cached(const CaseStudy& study,
                                 const std::string& cache_dir) {
  ExplorationOptions options;
  options.cache_dir = cache_dir;
  const ExplorationEngine engine(make_paper_energy_model(), options);
  return engine.explore(study);
}

// Every entry of `dir`'s cache file, read through seed(), sorted by key.
std::vector<std::pair<std::string, SimulationRecord>> file_entries(
    const std::string& dir) {
  SimulationCache cache;
  PersistentSimulationCache(dir).seed(cache);
  auto entries = cache.entries();
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

TEST(SimulationCacheKeys, SameLabelsDifferentTraceContentDoNotCollide) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  // Same network label, same config, same app — but one extra packet.
  const Scenario& original = study.scenarios.front();
  net::Trace tweaked = *original.trace;
  tweaked.add_packet(net::PacketRecord{});
  Scenario relabeled = original;
  relabeled.trace = std::make_shared<const net::Trace>(std::move(tweaked));
  ASSERT_EQ(original.label(), relabeled.label());

  // The label-based key scheme collided here; content keys must not.
  EXPECT_NE(SimulationCache::key_of(original, combo, model),
            SimulationCache::key_of(relabeled, combo, model));

  SimulationCache cache;
  cache_simulation(cache, original, combo, model);
  EXPECT_FALSE(cache.find(relabeled, combo, model).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SimulationCacheKeys, DifferentEnergyModelsDoNotCollide) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const Scenario& scenario = study.scenarios.front();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  const energy::EnergyModel paper = make_paper_energy_model();
  energy::EnergyModel::Config config;
  config.clock_ghz = 2.4;
  const energy::EnergyModel faster(energy::MemoryHierarchy::cached(), config);

  EXPECT_NE(paper.fingerprint(), faster.fingerprint());
  EXPECT_NE(SimulationCache::key_of(scenario, combo, paper),
            SimulationCache::key_of(scenario, combo, faster));

  SimulationCache cache;
  cache_simulation(cache, scenario, combo, paper);
  EXPECT_FALSE(cache.find(scenario, combo, faster).has_value());
}

// Forwards to a real app but reports different simulation semantics.
class BumpedVersionApp : public apps::NetworkApplication {
 public:
  explicit BumpedVersionApp(std::shared_ptr<apps::NetworkApplication> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<std::string> dominant_structures() const override {
    return inner_->dominant_structures();
  }
  apps::RunResult run(const net::Trace& trace,
                      const ddt::DdtCombination& combo) override {
    return inner_->run(trace, combo);
  }
  std::string config_label() const override {
    return inner_->config_label();
  }
  std::uint32_t cache_version() const override {
    return inner_->cache_version() + 1;
  }

 private:
  std::shared_ptr<apps::NetworkApplication> inner_;
};

TEST(SimulationCacheKeys, AppCacheVersionInvalidatesOldRecords) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  // Same app name/config/trace — but run() semantics declared changed.
  Scenario evolved = study.scenarios.front();
  evolved.app = std::make_shared<BumpedVersionApp>(evolved.app);

  EXPECT_NE(
      SimulationCache::key_of(study.scenarios.front(), combo, model),
      SimulationCache::key_of(evolved, combo, model));

  SimulationCache cache;
  cache_simulation(cache, study.scenarios.front(), combo, model);
  EXPECT_FALSE(cache.find(evolved, combo, model).has_value());
}

TEST(SimulationCacheKeys, HitRelabelsToRequestingScenario) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  // Identical trace content published under a different network label
  // (e.g. a record cached by a previous run of another study).
  Scenario renamed = study.scenarios.front();
  renamed.network = "some-other-name";

  SimulationCache cache;
  cache_simulation(cache, renamed, combo, model);
  const auto hit = cache.find(study.scenarios.front(), combo, model);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->network, study.scenarios.front().network);
}

// The stream construction key_of used to be, kept here as the byte
// oracle of the persisted key format: lowercase hex, no prefix.
std::string stream_key(const Scenario& scenario,
                       const ddt::DdtCombination& combo,
                       const energy::EnergyModel& model) {
  const auto hex = [](std::uint64_t v) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::hex << v;
    return os.str();
  };
  const char sep = '\x1f';
  return scenario.app->name() + sep +
         std::to_string(scenario.app->cache_version()) + sep +
         scenario.config + sep + hex(scenario.trace->content_hash()) + sep +
         combo.label() + sep + hex(model.fingerprint());
}

using KeyFn = std::string (*)(const Scenario&, const ddt::DdtCombination&,
                              const energy::EnergyModel&);

// Every key of `study`, in (scenario, combination) order.
std::vector<std::string> study_keys(const CaseStudy& study,
                                    const energy::EnergyModel& model,
                                    KeyFn key_fn = &SimulationCache::key_of) {
  std::vector<std::string> keys;
  for (const Scenario& scenario : study.scenarios) {
    for (const ddt::DdtCombination& combo :
         ddt::enumerate_combinations(study.slot_kind_sets())) {
      keys.push_back(key_fn(scenario, combo, model));
    }
  }
  return keys;
}

// Element-wise, so a mismatch names one key instead of dumping both lists.
void expect_same_keys(const std::vector<std::string>& actual,
                      const std::vector<std::string>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "key " << i;
  }
}

TEST(SimulationCacheKeys, KeysKeepTheStreamFormattedBytes) {
  const CaseStudy study =
      api::registry().make_study("url", CaseStudyOptions{}.scaled(0.05));
  const energy::EnergyModel model = make_paper_energy_model();
  const std::vector<std::string> keys = study_keys(study, model);
  EXPECT_EQ(keys.size(), study.exhaustive_simulations());
  expect_same_keys(keys, study_keys(study, model, &stream_key));
}

TEST(SimulationCacheKeys, GlobalLocaleChangesNoKeyOrRecordBytes) {
  const CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = make_paper_energy_model();
  const ExplorationEngine engine(make_paper_energy_model());
  const std::vector<std::string> classic_keys = study_keys(study, model);
  const std::string classic_records =
      engine.explore(study).serialized_records();

  // A locale that would write 0x1234567 as "1,234,567": keys formatted
  // through it would silently miss every persisted record.
  const test_support::ScopedCommaLocale comma;
  expect_same_keys(study_keys(study, model), classic_keys);
  EXPECT_EQ(engine.explore(study).serialized_records(), classic_records);
}

TEST_F(PersistentCacheTest, WarmRerunExecutesNothingAndIsByteIdentical) {
  const CaseStudy study = tiny_url_study();

  const ExplorationReport cold = explore_cached(study, dir_);
  EXPECT_EQ(cold.persistent_loaded, 0u);
  EXPECT_GT(cold.persistent_stored, 0u);
  EXPECT_GT(cold.executed_simulations(), 0u);

  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.persistent_loaded, cold.persistent_stored);
  EXPECT_EQ(warm.persistent_stored, 0u);
  // The acceptance contract: a warm rerun executes ZERO simulations...
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.cache_misses(), 0u);
  // ...yet the report is byte-identical to the cold run's.
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
  EXPECT_EQ(warm.survivors, cold.survivors);
  EXPECT_EQ(warm.pareto_optimal, cold.pareto_optimal);

  // And identical to a run with persistence disabled entirely.
  const ExplorationReport plain = explore_cached(study, "");
  EXPECT_EQ(plain.serialized_records(), cold.serialized_records());
}

TEST_F(PersistentCacheTest, WarmRerunThroughPublicApi) {
  // The api::Exploration surface of the same contract.
  api::Exploration first(tiny_url_study());
  const std::string cold_bytes =
      first.cache_dir(dir_).run().serialized_records();

  api::Exploration second(tiny_url_study());
  const ExplorationReport& warm = second.cache_dir(dir_).run();
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.serialized_records(), cold_bytes);
}

TEST_F(PersistentCacheTest, RoundTripPreservesRecordsExactly) {
  const CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kDllOfArraysRoving, ddt::DdtKind::kSllRoving});
  const Scenario& scenario = study.scenarios.front();

  SimulationCache cache;
  const SimulationRecord original =
      cache_simulation(cache, scenario, combo, model);
  PersistentSimulationCache writer(dir_);
  EXPECT_EQ(writer.load(), 0u);
  EXPECT_EQ(writer.store_new(cache), 1u);
  // A second store with no new entries writes nothing.
  EXPECT_EQ(writer.store_new(cache), 0u);

  PersistentSimulationCache reader(dir_);
  SimulationCache seeded;
  ASSERT_EQ(reader.seed(seeded), 1u);
  const auto replayed = seeded.find(scenario, combo, model);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->app_name, original.app_name);
  EXPECT_EQ(replayed->combo, original.combo);
  EXPECT_EQ(replayed->network, original.network);
  EXPECT_EQ(replayed->config, original.config);
  // Bit-exact doubles: the binary format stores IEEE-754 patterns.
  EXPECT_EQ(replayed->metrics.energy_mj, original.metrics.energy_mj);
  EXPECT_EQ(replayed->metrics.time_s, original.metrics.time_s);
  EXPECT_EQ(replayed->metrics.accesses, original.metrics.accesses);
  EXPECT_EQ(replayed->metrics.footprint_bytes,
            original.metrics.footprint_bytes);
  EXPECT_EQ(replayed->counters.cpu_ops, original.counters.cpu_ops);
  EXPECT_EQ(replayed->counters.peak_bytes, original.counters.peak_bytes);
}

TEST_F(PersistentCacheTest, CorruptFileIsIgnoredAndRewritten) {
  std::filesystem::create_directories(dir_);
  PersistentSimulationCache cache(dir_);
  {
    std::ofstream os(cache.file_path(), std::ios::binary);
    os << "this is not a ddtr cache file at all, just garbage bytes";
  }
  EXPECT_EQ(cache.load(), 0u);  // ignored, not a crash

  // A run over the corrupt directory still works and replaces the file.
  const CaseStudy study = tiny_url_study();
  const ExplorationReport cold = explore_cached(study, dir_);
  EXPECT_EQ(cold.persistent_loaded, 0u);
  EXPECT_GT(cold.persistent_stored, 0u);
  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
}

TEST_F(PersistentCacheTest, TruncatedTailLosesOnlyTheTail) {
  const CaseStudy study = tiny_url_study();
  explore_cached(study, dir_);

  PersistentSimulationCache probe(dir_);
  const std::size_t full = probe.load();
  ASSERT_GT(full, 1u);

  // Chop the file mid-entry: the intact prefix must still load.
  const auto path = probe.file_path();
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 37);
  PersistentSimulationCache truncated(dir_);
  const std::size_t partial = truncated.load();
  EXPECT_LT(partial, full);
  EXPECT_GT(partial, 0u);

  // The next run re-executes only what the tail lost, then heals the file.
  const ExplorationReport heal = explore_cached(study, dir_);
  EXPECT_EQ(heal.persistent_loaded, partial);
  EXPECT_GT(heal.persistent_stored, 0u);
  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.executed_simulations(), 0u);
}

TEST_F(PersistentCacheTest, StaleFormatVersionInvalidatesWholeFile) {
  const CaseStudy study = tiny_url_study();
  const ExplorationReport cold = explore_cached(study, dir_);
  ASSERT_GT(cold.persistent_stored, 0u);

  // Flip the format-version field (bytes 8..11, after the 8-byte magic).
  PersistentSimulationCache probe(dir_);
  {
    std::fstream os(probe.file_path(),
                    std::ios::binary | std::ios::in | std::ios::out);
    os.seekp(8);
    const char stale[4] = {'\xff', '\xff', '\xff', '\xff'};
    os.write(stale, sizeof(stale));
  }
  EXPECT_EQ(probe.load(), 0u);

  // The stale file is rewritten, after which reruns are warm again.
  const ExplorationReport rewrite = explore_cached(study, dir_);
  EXPECT_EQ(rewrite.persistent_loaded, 0u);
  EXPECT_GT(rewrite.persistent_stored, 0u);
  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
}

TEST_F(PersistentCacheTest, ZeroLengthFileIsToleratedAndReported) {
  // The scar of a crash between creating the file and the first durable
  // write (what the store's fsync-before-rename prevents): tolerated on
  // load, reported distinctly, healed by a store.
  std::filesystem::create_directories(dir_);
  PersistentSimulationCache cache(dir_);
  { std::ofstream os(cache.file_path(), std::ios::binary); }

  const CacheInspection check = inspect_cache(dir_);
  EXPECT_TRUE(check.present);
  EXPECT_TRUE(check.empty);
  EXPECT_FALSE(check.header_valid);
  EXPECT_EQ(check.corrupt, 0u);
  EXPECT_TRUE(check.ok());  // empty != corrupt
  EXPECT_EQ(cache.load(), 0u);

  // A store rewrites it with a valid header.
  const energy::EnergyModel model = make_paper_energy_model();
  const CaseStudy study = tiny_url_study();
  SimulationCache sim;
  cache_simulation(sim, study.scenarios.front(),
                   ddt::DdtCombination(
                       {ddt::DdtKind::kArray, ddt::DdtKind::kSll}),
                   model);
  EXPECT_EQ(cache.store_new(sim), 1u);
  const CacheInspection healed = inspect_cache(dir_);
  EXPECT_FALSE(healed.empty);
  EXPECT_TRUE(healed.header_valid);
  EXPECT_EQ(healed.entries, 1u);
}

TEST_F(PersistentCacheTest, ColdStartSessionsDoNotWipeEachOthersStores) {
  // Two sessions share one cache dir and both load() before the file
  // exists; the second store_new() must merge into the first's file, not
  // replace it with its own entries only.
  const CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = make_paper_energy_model();
  PersistentSimulationCache first(dir_);
  PersistentSimulationCache second(dir_);
  EXPECT_EQ(first.load(), 0u);
  EXPECT_EQ(second.load(), 0u);

  SimulationCache cache_a;
  cache_simulation(cache_a, study.scenarios.front(),
                   ddt::DdtCombination(
                       {ddt::DdtKind::kArray, ddt::DdtKind::kSll}),
                   model);
  SimulationCache cache_b;
  cache_simulation(cache_b, study.scenarios.front(),
                   ddt::DdtCombination(
                       {ddt::DdtKind::kDll, ddt::DdtKind::kSll}),
                   model);
  EXPECT_EQ(first.store_new(cache_a), 1u);
  EXPECT_EQ(second.store_new(cache_b), 1u);

  PersistentSimulationCache reader(dir_);
  EXPECT_EQ(reader.load(), 2u);  // both sessions' records survived
}

TEST_F(PersistentCacheTest, MissingDirectoryIsCreatedOnStore) {
  const std::string nested = dir_ + "/deeper/nested";
  const ExplorationReport cold = explore_cached(tiny_url_study(), nested);
  EXPECT_GT(cold.persistent_stored, 0u);
  EXPECT_TRUE(
      std::filesystem::exists(PersistentSimulationCache(nested).file_path()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

constexpr std::size_t kHeaderBytes = 8 + 4;  // magic + format version

// Little-endian field of `bytes` at `at`, `width` bytes wide.
std::uint64_t get_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return v;
}

// The keys of a cache file's complete frames, in file order. A frame is
// u32 magic, u64 payload size, u64 checksum, then the payload, which
// opens with the u64-length-prefixed key.
std::vector<std::string> frame_keys(const std::string& path) {
  const std::string bytes = read_bytes(path);
  std::vector<std::string> keys;
  std::size_t pos = kHeaderBytes;
  while (pos + 20 + 8 <= bytes.size()) {
    const std::uint64_t payload = get_le(bytes, pos + 4, 8);
    const std::uint64_t key = get_le(bytes, pos + 20, 8);
    if (pos + 20 + payload > bytes.size()) break;
    keys.push_back(bytes.substr(pos + 28, key));
    pos += 20 + payload;
  }
  return keys;
}

// Strictly increasing: sorted and duplicate-free.
bool strictly_sorted(const std::vector<std::string>& keys) {
  return std::adjacent_find(keys.begin(), keys.end(),
                            [](const std::string& a, const std::string& b) {
                              return a >= b;
                            }) == keys.end();
}

bool same_record(const SimulationRecord& a, const SimulationRecord& b) {
  return a.app_name == b.app_name && a.combo == b.combo &&
         a.network == b.network && a.config == b.config &&
         std::bit_cast<std::uint64_t>(a.metrics.energy_mj) ==
             std::bit_cast<std::uint64_t>(b.metrics.energy_mj) &&
         std::bit_cast<std::uint64_t>(a.metrics.time_s) ==
             std::bit_cast<std::uint64_t>(b.metrics.time_s) &&
         a.metrics.accesses == b.metrics.accesses &&
         a.metrics.footprint_bytes == b.metrics.footprint_bytes &&
         a.counters == b.counters;
}

// Seeded byte flips, truncations and trailing junk against a cache file.
// load() must never crash, and damage may only drop entries: every entry
// it keeps must be exactly the entry stored under that key. Trailing junk
// alone is a torn tail and must keep every entry.
TEST_F(PersistentCacheTest, CorruptionSweepDropsButNeverAltersEntries) {
  const CaseStudy study =
      api::registry().make_study("url", CaseStudyOptions{}.scaled(0.05));
  explore_cached(study, dir_ + "/pristine");
  PersistentSimulationCache pristine(dir_ + "/pristine");
  const std::size_t full = pristine.load();
  ASSERT_GT(full, 1u);
  std::map<std::string, SimulationRecord> stored;
  for (auto& [key, record] : file_entries(pristine.dir())) {
    stored.emplace(key, record);
  }

  const std::string intact = read_bytes(pristine.file_path());
  const std::string case_dir = dir_ + "/case";
  const std::string path = PersistentSimulationCache(case_dir).file_path();
  std::filesystem::create_directories(case_dir);

  support::Rng rng(0xcac4ec0de5eedull);
  std::size_t partial_loads = 0;  // some entries dropped, some kept
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = intact;
    const std::uint64_t mutation = rng.uniform(0, 3);
    if (mutation == 0 || mutation == 3) {  // byte flips
      const std::uint64_t flips = rng.uniform(1, 4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const auto pos =
            static_cast<std::size_t>(rng.uniform(0, bytes.size() - 1));
        bytes[pos] = static_cast<char>(bytes[pos] ^ rng.uniform(1, 255));
      }
    }
    if (mutation == 1 || mutation == 3) {  // truncation
      bytes.resize(static_cast<std::size_t>(rng.uniform(0, bytes.size() - 1)));
    }
    if (mutation == 2) {  // trailing junk
      const std::uint64_t junk = rng.uniform(1, 64);
      for (std::uint64_t i = 0; i < junk; ++i) {
        bytes.push_back(static_cast<char>(rng.uniform(0, 255)));
      }
    }
    write_bytes(path, bytes);

    PersistentSimulationCache cache(case_dir);
    SimulationCache seeded;
    const std::size_t loaded = cache.seed(seeded);
    const std::string where = "iteration " + std::to_string(iter) +
                              ", mutation " + std::to_string(mutation);
    // Every reader agrees on what the damaged file holds.
    ASSERT_EQ(cache.load(), loaded) << where;
    ASSERT_EQ(inspect_cache(case_dir).entries, loaded) << where;
    if (mutation == 2) {
      ASSERT_EQ(loaded, full) << where;
    }
    if (loaded > 0 && loaded < full) ++partial_loads;
    for (const auto& [key, record] : seeded.entries()) {
      const auto it = stored.find(key);
      ASSERT_NE(it, stored.end()) << where << ": kept an unknown key";
      ASSERT_TRUE(same_record(record, it->second))
          << where << ": kept an altered entry for " << record.combo.label();
    }
  }
  // The sweep reaches past the headers into individual frames.
  EXPECT_GT(partial_loads, 100u);
}

TEST_F(PersistentCacheTest, StoreNewWritesOnlyEntriesNotYetLoaded) {
  explore_cached(tiny_url_study(), dir_);
  // seed() alone, as a warm start does: its one parse keeps the file's
  // key set too.
  PersistentSimulationCache persistent(dir_);
  SimulationCache cache;
  const std::size_t full = persistent.seed(cache);
  ASSERT_GT(full, 3u);
  const std::uintmax_t warm_bytes =
      std::filesystem::file_size(persistent.file_path());
  const ino_t warm_inode = inode_of(persistent.file_path());

  // A fully loaded cache (the warm daemon's case) stores nothing and
  // leaves the file alone: same size, same inode (no replace).
  EXPECT_EQ(persistent.store_new(cache), 0u);
  EXPECT_EQ(std::filesystem::file_size(persistent.file_path()), warm_bytes);
  EXPECT_EQ(inode_of(persistent.file_path()), warm_inode);

  // k entries under keys the file does not hold: exactly those go out.
  constexpr std::size_t kFresh = 3;
  const auto entries = file_entries(dir_);
  for (std::size_t i = 0; i < kFresh; ++i) {
    cache.insert(entries[i].first + "-fresh", entries[i].second);
  }
  EXPECT_EQ(persistent.store_new(cache), kFresh);
  EXPECT_GT(std::filesystem::file_size(persistent.file_path()), warm_bytes);
  const ino_t stored_inode = inode_of(persistent.file_path());
  EXPECT_NE(stored_inode, warm_inode);  // the store replaced the file
  EXPECT_EQ(persistent.store_new(cache), 0u);  // now known: no duplicates
  EXPECT_EQ(inode_of(persistent.file_path()), stored_inode);

  PersistentSimulationCache reloaded(dir_);
  EXPECT_EQ(reloaded.load(), full + kFresh);
  EXPECT_EQ(inspect_cache(dir_).duplicates, 0u);
}

// The frame `store_new` writes for one entry: a one-entry file minus its
// header.
std::string frame_of(const std::string& scratch_dir, const std::string& key,
                     const SimulationRecord& record) {
  std::filesystem::remove_all(scratch_dir);
  SimulationCache one;
  one.insert(key, record);
  PersistentSimulationCache writer(scratch_dir);
  EXPECT_EQ(writer.store_new(one), 1u);
  return read_bytes(writer.file_path()).substr(kHeaderBytes);
}

// The entries a tiny url exploration stores, sorted by key.
std::vector<std::pair<std::string, SimulationRecord>> study_entries(
    const std::string& dir) {
  explore_cached(tiny_url_study(), dir);
  return file_entries(dir);
}

TEST_F(PersistentCacheTest, StoresAreSortedAndIndependentOfHistory) {
  const auto entries = study_entries(dir_ + "/pristine");
  ASSERT_GT(entries.size(), 6u);

  // One store of every entry, inserted in reverse key order.
  SimulationCache all;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    all.insert(it->first, it->second);
  }
  PersistentSimulationCache at_once(dir_ + "/at_once");
  ASSERT_EQ(at_once.store_new(all), entries.size());

  // The same set through three sessions: odd entries first, then the
  // back half (overlapping), then everything.
  const std::string piecewise = dir_ + "/piecewise";
  SimulationCache odd;
  SimulationCache back;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % 2 == 1) odd.insert(entries[i].first, entries[i].second);
    if (i >= entries.size() / 2) {
      back.insert(entries[i].first, entries[i].second);
    }
  }
  PersistentSimulationCache first(piecewise);
  PersistentSimulationCache second(piecewise);
  EXPECT_GT(first.store_new(odd), 0u);
  EXPECT_GT(second.store_new(back), 0u);
  EXPECT_GT(PersistentSimulationCache(piecewise).store_new(all), 0u);

  const std::string bytes = read_bytes(at_once.file_path());
  EXPECT_EQ(read_bytes(PersistentSimulationCache(piecewise).file_path()),
            bytes);
  const std::vector<std::string> keys = frame_keys(at_once.file_path());
  EXPECT_EQ(keys.size(), entries.size());
  EXPECT_TRUE(strictly_sorted(keys));
}

// What a rewrite of the file would change: size, mtime and inode.
struct FileStamp {
  std::uintmax_t size = 0;
  std::int64_t mtime_ns = 0;
  ino_t inode = 0;
  bool operator==(const FileStamp&) const = default;
};

FileStamp stamp_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return {static_cast<std::uintmax_t>(st.st_size),
          std::int64_t{st.st_mtim.tv_sec} * 1'000'000'000 +
              st.st_mtim.tv_nsec,
          st.st_ino};
}

// store_new() skips, before any scan, the cache it last synced with when
// that cache has inserted nothing since; any other cache, an insertion,
// or a load()/seed() in between makes it look again.
TEST_F(PersistentCacheTest, SyncedCacheStoresOnlyAfterAnInsertion) {
  const auto entries = study_entries(dir_ + "/pristine");
  ASSERT_GT(entries.size(), 6u);
  PersistentSimulationCache persistent(dir_);
  const std::string path = persistent.file_path();
  // An optional, so a second cache can be built at the first one's
  // address.
  std::optional<SimulationCache> cache;
  cache.emplace();
  cache->insert(entries[0].first, entries[0].second);
  cache->insert(entries[1].first, entries[1].second);
  ASSERT_EQ(persistent.store_new(*cache), 2u);

  // Nothing inserted since: no store, the file untouched.
  const FileStamp synced = stamp_of(path);
  EXPECT_EQ(persistent.store_new(*cache), 0u);
  EXPECT_EQ(stamp_of(path), synced);

  // One insertion makes it store.
  cache->insert(entries[2].first, entries[2].second);
  EXPECT_EQ(persistent.store_new(*cache), 1u);
  EXPECT_NE(stamp_of(path).inode, synced.inode);

  // A second cache with an equal insertion count, at the same address.
  const SimulationCache* first = &*cache;
  cache.emplace();
  ASSERT_EQ(&*cache, first);
  for (std::size_t i = 3; i < 6; ++i) {
    cache->insert(entries[i].first, entries[i].second);
  }
  EXPECT_EQ(persistent.store_new(*cache), 3u);

  // A seed() (or load()) after the file was cleared: the cache inserts
  // nothing, but the file lacks every entry.
  ASSERT_TRUE(clear_cache(dir_));
  EXPECT_EQ(persistent.seed(*cache), 0u);
  EXPECT_EQ(persistent.store_new(*cache), 3u);
  ASSERT_TRUE(clear_cache(dir_));
  EXPECT_EQ(persistent.load(), 0u);
  EXPECT_EQ(persistent.store_new(*cache), 3u);
  EXPECT_EQ(PersistentSimulationCache(dir_).load(), 3u);
}

// A file an older version left: appended frames in store order, among
// them a duplicate, a bit-corrupted frame and a torn tail. It loads as
// before; one store replaces it with the sorted, duplicate-free encoding
// of its readable entries plus the new ones.
TEST_F(PersistentCacheTest, OneStoreNormalizesAnAppendedFile) {
  const auto entries = study_entries(dir_ + "/pristine");
  ASSERT_GT(entries.size(), 4u);
  const std::string scratch = dir_ + "/frame";
  const auto frame = [&](std::size_t i) {
    return frame_of(scratch, entries[i].first, entries[i].second);
  };
  std::string corrupt = frame(2);
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x5a);
  const std::string torn = frame(4).substr(0, 30);
  const std::string header = read_bytes(
      PersistentSimulationCache(dir_ + "/pristine").file_path())
                                 .substr(0, kHeaderBytes);
  PersistentSimulationCache appended(dir_ + "/appended");
  std::filesystem::create_directories(appended.dir());
  write_bytes(appended.file_path(), header + frame(3) + frame(0) + frame(3) +
                                        corrupt + frame(1) + torn);

  const CacheInspection before = inspect_cache(appended.dir());
  EXPECT_TRUE(before.header_valid);
  EXPECT_EQ(before.entries, 3u);
  EXPECT_EQ(before.duplicates, 1u);
  EXPECT_EQ(before.corrupt, 1u);
  EXPECT_EQ(before.trailing_bytes, torn.size());
  EXPECT_FALSE(before.ok());
  SimulationCache seeded;
  ASSERT_EQ(appended.seed(seeded), 3u);
  EXPECT_EQ(seeded.size(), 3u);

  // The corrupted and the torn entry are new to the file: one store.
  SimulationCache fresh;
  fresh.insert(entries[2].first, entries[2].second);
  fresh.insert(entries[4].first, entries[4].second);
  EXPECT_EQ(appended.store_new(fresh), 2u);

  const CacheInspection after = inspect_cache(appended.dir());
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.entries, 5u);
  EXPECT_EQ(after.duplicates, 0u);
  EXPECT_EQ(after.corrupt, 0u);
  EXPECT_EQ(after.trailing_bytes, 0u);
  EXPECT_EQ(PersistentSimulationCache(appended.dir()).load(), 5u);
  const std::vector<std::string> keys = frame_keys(appended.file_path());
  EXPECT_EQ(keys.size(), 5u);
  EXPECT_TRUE(strictly_sorted(keys));
  for (const auto& [key, record] : file_entries(appended.dir())) {
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&key = key](const auto& entry) { return entry.first == key; });
    ASSERT_NE(it, entries.end());
    EXPECT_TRUE(same_record(record, it->second)) << record.combo.label();
  }
}

// Writers in eight threads, each with its own instance (like separate
// processes sharing a --cache-dir), store disjoint entries round after
// round. The directory lock serializes their read-merge-replace, so the
// file ends up holding every entry any of them stored.
TEST_F(PersistentCacheTest, ConcurrentWritersKeepEveryEntry) {
  const auto entries = study_entries(dir_ + "/pristine");
  ASSERT_FALSE(entries.empty());
  const SimulationRecord& record = entries.front().second;
  const std::string& base = entries.front().first;
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kRounds = 4;
  constexpr std::size_t kPerRound = 3;

  const std::string shared = dir_ + "/shared";
  std::vector<std::size_t> stored(kWriters, 0);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      PersistentSimulationCache persistent(shared);
      persistent.load();
      SimulationCache cache;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kPerRound; ++i) {
          cache.insert(base + "-w" + std::to_string(w) + "-r" +
                           std::to_string(round) + "-" + std::to_string(i),
                       record);
        }
        stored[w] += persistent.store_new(cache);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  constexpr std::size_t kTotal = kWriters * kRounds * kPerRound;
  for (std::size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(stored[w], kRounds * kPerRound) << "writer " << w;
  }
  PersistentSimulationCache reader(shared);
  EXPECT_EQ(reader.load(), kTotal);
  const CacheInspection inspection = inspect_cache(shared);
  EXPECT_EQ(inspection.duplicates, 0u);
  EXPECT_EQ(inspection.corrupt, 0u);
  EXPECT_TRUE(strictly_sorted(frame_keys(reader.file_path())));
}

// The store writes through sim_cache.ddtr.tmp: none is left behind, and
// a stale one (a writer killed mid-write) is overwritten, not read.
TEST_F(PersistentCacheTest, StoresLeaveNoTempFile) {
  const auto entries = study_entries(dir_ + "/pristine");
  ASSERT_GT(entries.size(), 1u);
  const auto temp_files = [&] {
    std::size_t n = 0;
    for (const auto& file : std::filesystem::directory_iterator(dir_)) {
      n += file.path().extension() == ".tmp";
    }
    return n;
  };
  PersistentSimulationCache persistent(dir_);
  SimulationCache cache;
  cache.insert(entries[0].first, entries[0].second);
  ASSERT_EQ(persistent.store_new(cache), 1u);
  EXPECT_EQ(temp_files(), 0u);

  write_bytes(persistent.file_path() + ".tmp", "torn leftovers of a writer");
  cache.insert(entries[1].first, entries[1].second);
  ASSERT_EQ(persistent.store_new(cache), 1u);
  EXPECT_EQ(temp_files(), 0u);
  EXPECT_EQ(PersistentSimulationCache(dir_).load(), 2u);
  EXPECT_TRUE(inspect_cache(dir_).ok());
}

TEST_F(PersistentCacheTest, InspectAndClearCoverTheCacheFile) {
  const CaseStudy study = tiny_url_study();
  explore_cached(study, dir_);
  const CacheInspection stats = inspect_cache(dir_);
  EXPECT_TRUE(stats.present);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.bytes, 0u);
  ASSERT_EQ(stats.apps.size(), 1u);
  EXPECT_EQ(stats.apps.front().first, study.scenarios.front().app->name());
  ASSERT_EQ(stats.model_fingerprints.size(), 1u);

  EXPECT_TRUE(clear_cache(dir_));  // the one file
  const CacheInspection cleared = inspect_cache(dir_);
  EXPECT_FALSE(cleared.present);
  EXPECT_EQ(cleared.entries, 0u);
}

// A directory an older version left behind: half of a study's entries in
// the cache file, the other half in a valid per-writer segment file
// (`sim_cache.<tag>.seg`). Only the cache file is read; the segment's
// records are recomputed once, appended to the cache file, and the
// segment itself is never touched.
TEST_F(PersistentCacheTest, LegacySegmentFilesAreIgnored) {
  const CaseStudy study =
      api::registry().make_study("url", CaseStudyOptions{}.scaled(0.05));
  const ExplorationReport cold = explore_cached(study, dir_ + "/pristine");
  const auto entries = file_entries(dir_ + "/pristine");
  ASSERT_GT(entries.size(), 1u);

  const std::string legacy = dir_ + "/legacy";
  SimulationCache main_half;
  SimulationCache segment_half;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    (i < entries.size() / 2 ? main_half : segment_half)
        .insert(entries[i].first, entries[i].second);
  }
  PersistentSimulationCache main_writer(legacy);
  ASSERT_EQ(main_writer.store_new(main_half), main_half.size());
  PersistentSimulationCache segment_writer(dir_ + "/segment");
  ASSERT_EQ(segment_writer.store_new(segment_half), segment_half.size());
  const std::string segment = legacy + "/sim_cache.legacy.seg";
  const std::string segment_bytes = read_bytes(segment_writer.file_path());
  write_bytes(segment, segment_bytes);

  PersistentSimulationCache probe(legacy);
  EXPECT_EQ(probe.load(), main_half.size());

  const ExplorationReport rerun = explore_cached(study, legacy);
  EXPECT_EQ(rerun.persistent_loaded, main_half.size());
  EXPECT_GT(rerun.executed_simulations(), 0u);
  EXPECT_EQ(rerun.serialized_records(), cold.serialized_records());
  EXPECT_EQ(read_bytes(segment), segment_bytes);

  EXPECT_EQ(explore_cached(study, legacy).executed_simulations(), 0u);
}

// Little-endian encodings written out by hand, independent of
// support/binary_io, so the expected frame below pins the format itself.
void put_le(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_str(std::string& out, const std::string& s) {
  put_le(out, s.size(), 8);
  out += s;
}

TEST_F(PersistentCacheTest, StoredFrameBytesArePinned) {
  SimulationRecord r;
  r.app_name = "URL";
  r.combo = ddt::DdtCombination({ddt::DdtKind::kArray, ddt::DdtKind::kSll});
  r.network = "dart-berry";
  r.config = "rules=8";
  r.metrics.energy_mj = 1.5;  // 0x3ff8000000000000
  r.metrics.time_s = -0.25;   // 0xbfd0000000000000
  r.metrics.accesses = 7;
  r.metrics.footprint_bytes = 0x0102030405060708ull;
  r.counters.reads = 1;
  r.counters.writes = 2;
  r.counters.bytes_read = 3;
  r.counters.bytes_written = 4;
  r.counters.allocations = 5;
  r.counters.deallocations = 6;
  r.counters.live_bytes = 0;
  r.counters.peak_bytes = 8;
  r.counters.cpu_ops = 9;
  SimulationCache cache;
  cache.insert("key\x1f" "1", r);

  std::string payload;
  put_str(payload, "key\x1f" "1");
  put_str(payload, "URL");
  put_str(payload, "AR+SLL");
  put_str(payload, "dart-berry");
  put_str(payload, "rules=8");
  put_le(payload, 0x3ff8000000000000ull, 8);
  put_le(payload, 0xbfd0000000000000ull, 8);
  for (std::uint64_t v : {std::uint64_t{7}, std::uint64_t{0x0102030405060708},
                          std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{3}, std::uint64_t{4},
                          std::uint64_t{5}, std::uint64_t{6},
                          std::uint64_t{0}, std::uint64_t{8},
                          std::uint64_t{9}}) {
    put_le(payload, v, 8);
  }
  std::string expected = "DDTRSIMC";
  put_le(expected, 2, 4);           // format version
  put_le(expected, 0x454d4953, 4);  // "SIME"
  put_le(expected, payload.size(), 8);
  put_le(expected, support::fnv1a64(payload.data(), payload.size()), 8);
  expected += payload;
  ASSERT_EQ(payload.size(), 5 * 8 + 5 + 3 + 6 + 10 + 7 + 13 * 8);

  PersistentSimulationCache writer(dir_);
  ASSERT_EQ(writer.store_new(cache), 1u);
  EXPECT_EQ(read_bytes(writer.file_path()), expected);

  // A second store of the same entry, by a session that never loaded
  // the file, rewrites the same single frame, byte for byte.
  PersistentSimulationCache second(dir_);
  ASSERT_EQ(second.store_new(cache), 0u);
  EXPECT_EQ(read_bytes(second.file_path()), expected);
}

}  // namespace
}  // namespace ddtr::core
