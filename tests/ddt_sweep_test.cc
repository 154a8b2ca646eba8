// Parameterized property sweeps across the DDT library: profiling
// determinism, workload-size monotonicity, chunk-capacity functional
// equivalence, and roving-cache stress under structural churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ddt/chunked_list.h"
#include "ddt/factory.h"
#include "support/rng.h"

namespace ddtr {
namespace {

struct Rec {
  std::uint64_t key = 0;
  std::uint64_t val = 0;
  bool operator==(const Rec&) const = default;
};

class DdtSweepTest : public ::testing::TestWithParam<ddt::DdtKind> {};

// The same operation sequence must charge the same counters every time —
// the whole exploration depends on simulation determinism.
TEST_P(DdtSweepTest, CountersAreDeterministic) {
  const auto run_once = [&] {
    prof::MemoryProfile profile;
    auto c = ddt::make_container<Rec>(GetParam(), profile);
    support::Rng rng(321);
    for (int i = 0; i < 500; ++i) {
      const double roll = rng.next_double();
      if (roll < 0.5 || c->empty()) {
        c->push_back({rng.next_u64() % 100, 0});
      } else if (roll < 0.7) {
        c->get(rng.uniform(0, c->size() - 1));
      } else if (roll < 0.85) {
        c->set(rng.uniform(0, c->size() - 1), {7, 7});
      } else {
        c->erase(rng.uniform(0, c->size() - 1));
      }
    }
    return profile.counters();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.cpu_ops, b.cpu_ops);
}

// More records never cost fewer accesses to scan.
TEST_P(DdtSweepTest, ScanCostMonotoneInSize) {
  std::uint64_t prev = 0;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    prof::MemoryProfile profile;
    auto c = ddt::make_container<Rec>(GetParam(), profile);
    for (std::size_t i = 0; i < n; ++i) c->push_back({i, i});
    const std::uint64_t before = profile.counters().accesses();
    c->for_each([](std::size_t, const Rec&) { return true; });
    const std::uint64_t cost = profile.counters().accesses() - before;
    EXPECT_GT(cost, prev) << "n=" << n;
    prev = cost;
  }
}

// Footprint returns to zero and peak is at least live-high-water.
TEST_P(DdtSweepTest, FootprintAccountingConsistent) {
  prof::MemoryProfile profile;
  {
    auto c = ddt::make_container<Rec>(GetParam(), profile);
    for (std::size_t i = 0; i < 300; ++i) c->push_back({i, i});
    const std::uint64_t live_full = profile.counters().live_bytes;
    EXPECT_GE(profile.counters().peak_bytes, live_full);
    EXPECT_GE(live_full, 300 * sizeof(Rec));  // at least the records
    for (std::size_t i = 0; i < 150; ++i) c->erase(c->size() - 1);
    EXPECT_LE(profile.counters().live_bytes, live_full);
  }
  EXPECT_EQ(profile.counters().live_bytes, 0u);
}

// find_if + erase loops (the conntrack eviction pattern) must stay
// consistent even with roving caches pointing into eased storage.
TEST_P(DdtSweepTest, FindEraseChurnStaysConsistent) {
  prof::MemoryProfile profile;
  auto c = ddt::make_container<Rec>(GetParam(), profile);
  std::vector<Rec> model;
  support::Rng rng(777);
  for (int step = 0; step < 400; ++step) {
    const Rec r{rng.next_u64() % 50, static_cast<std::uint64_t>(step)};
    c->push_back(r);
    model.push_back(r);
    if (model.size() > 32) {
      // Find the first record with a matching key bucket and evict it.
      const std::uint64_t key = rng.next_u64() % 50;
      const std::size_t idx =
          c->find_if([key](const Rec& x) { return x.key == key; });
      std::size_t model_idx = ddt::npos;
      for (std::size_t i = 0; i < model.size(); ++i) {
        if (model[i].key == key) {
          model_idx = i;
          break;
        }
      }
      ASSERT_EQ(idx, model_idx);
      if (idx != ddt::npos) {
        c->erase(idx);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        c->erase(0);
        model.erase(model.begin());
      }
    }
  }
  ASSERT_EQ(c->size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(c->get(i), model[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DdtSweepTest, ::testing::ValuesIn(ddt::kAllDdtKinds),
    [](const ::testing::TestParamInfo<ddt::DdtKind>& p) {
      std::string name(ddt::to_string(p.param));
      for (char& ch : name) {
        if (ch == '(' || ch == ')') ch = '_';
      }
      return name;
    });

std::uint64_t rec_key(const Rec& r) { return r.key; }

class KeyedDdtSweepTest : public ::testing::TestWithParam<ddt::DdtKind> {};

// Every kind, constructed with a key function, must honor the full keyed
// Container contract — with ArrayContainer as the oracle. This is what
// legalizes HASH and UNR in the exploration lattice: different layout and
// cost, identical observable behaviour.
TEST_P(KeyedDdtSweepTest, ContractMatchesArrayOracle) {
  prof::MemoryProfile profile;
  prof::MemoryProfile oracle_profile;
  auto c = ddt::make_container<Rec>(GetParam(), profile, &rec_key);
  auto oracle = ddt::make_container<Rec>(ddt::DdtKind::kArray,
                                         oracle_profile, &rec_key);
  support::Rng rng(4242);
  for (int step = 0; step < 1200; ++step) {
    const auto v = static_cast<std::uint64_t>(step);
    const double roll = rng.next_double();
    if (roll < 0.40 || c->empty()) {
      const Rec r{rng.next_u64() % 200, v};
      c->push_back(r);
      oracle->push_back(r);
    } else if (roll < 0.52) {
      const std::size_t i = rng.uniform(0, c->size());
      const Rec r{rng.next_u64() % 200, v};
      c->insert(i, r);
      oracle->insert(i, r);
    } else if (roll < 0.62) {
      const std::size_t i = rng.uniform(0, c->size() - 1);
      const Rec r{rng.next_u64() % 200, 9000 + v};
      c->set(i, r);
      oracle->set(i, r);
    } else if (roll < 0.72) {
      const std::size_t i = rng.uniform(0, c->size() - 1);
      c->erase(i);
      oracle->erase(i);
    } else if (roll < 0.90) {
      // Keyed search parity, including first-match semantics on
      // duplicate keys and npos on misses. The oracle walks the records
      // and re-derives each key, so it is independent of the key column.
      const std::uint64_t key = rng.next_u64() % 250;
      EXPECT_EQ(c->find_key(key), oracle->scan_find_key(key))
          << "key " << key;
    } else {
      const std::size_t i = rng.uniform(0, c->size() - 1);
      EXPECT_EQ(c->get(i), oracle->get(i)) << "index " << i;
    }
  }
  ASSERT_EQ(c->size(), oracle->size());
  std::vector<Rec> got;
  std::vector<Rec> want;
  c->for_each([&](std::size_t, const Rec& r) {
    got.push_back(r);
    return true;
  });
  oracle->for_each([&](std::size_t, const Rec& r) {
    want.push_back(r);
    return true;
  });
  EXPECT_EQ(got, want);
  c->clear();
  EXPECT_TRUE(c->empty());
  EXPECT_EQ(c->find_key(5), ddt::npos);
}

// HASH's index must follow a key-rewriting set(): find_key builds the
// index, set(i, r) gives record i a new key, and then both the new key and
// the old one must answer as the oracle's reference walk does. Rewrites
// onto a fresh key and onto a key another record already holds.
TEST_P(KeyedDdtSweepTest, FindKeyFollowsKeyRewritingSet) {
  prof::MemoryProfile profile;
  prof::MemoryProfile oracle_profile;
  auto c = ddt::make_container<Rec>(GetParam(), profile, &rec_key);
  auto oracle = ddt::make_container<Rec>(ddt::DdtKind::kArray,
                                         oracle_profile, &rec_key);
  constexpr std::uint64_t kRecords = 40;
  for (std::uint64_t k = 0; k < kRecords; ++k) {
    c->push_back({k, k});
    oracle->push_back({k, k});
  }
  const struct {
    std::size_t index;
    std::uint64_t new_key;
  } rewrites[] = {{0, 1000}, {17, 1017}, {39, 1039}, {5, 6}, {6, 1000}};
  for (const auto& [index, new_key] : rewrites) {
    const std::uint64_t old_key = oracle->get(index).key;
    EXPECT_EQ(c->find_key(old_key), oracle->scan_find_key(old_key));
    const Rec r{new_key, 7000 + index};
    c->set(index, r);
    oracle->set(index, r);
    for (const std::uint64_t key : {new_key, old_key}) {
      EXPECT_EQ(c->find_key(key), oracle->scan_find_key(key))
          << "key " << key << " after set(" << index << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, KeyedDdtSweepTest, ::testing::ValuesIn(ddt::kAllDdtKinds),
    [](const ::testing::TestParamInfo<ddt::DdtKind>& p) {
      std::string name(ddt::to_string(p.param));
      for (char& ch : name) {
        if (ch == '(' || ch == ')') ch = '_';
      }
      return name;
    });

// The kind table must cover every enumerator exactly once and round-trip
// through parse; the lattice and the CLI `ddts` listing are generated
// from it.
TEST(DdtKinds, TableIsCompleteAndRoundTrips) {
  EXPECT_EQ(ddt::kAllDdtKinds.size(), 12u);
  std::set<std::string> names;
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    const std::string name(ddt::to_string(kind));
    EXPECT_FALSE(name.empty());
    EXPECT_FALSE(ddt::describe(kind).empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    ASSERT_TRUE(ddt::parse_ddt_kind(name).has_value()) << name;
    EXPECT_EQ(*ddt::parse_ddt_kind(name), kind);
  }
  EXPECT_FALSE(ddt::parse_ddt_kind("NOPE").has_value());
}

// parse_combination inverts label() over every 1- and 2-slot combination
// and rejects unknown kinds and empty parts.
TEST(DdtKinds, CombinationLabelsRoundTrip) {
  for (const std::size_t slots : {std::size_t{1}, std::size_t{2}}) {
    for (const ddt::DdtCombination& combo :
         ddt::enumerate_combinations(slots)) {
      const auto parsed = ddt::parse_combination(combo.label());
      ASSERT_TRUE(parsed.has_value()) << combo.label();
      EXPECT_EQ(*parsed, combo);
    }
  }
  for (const char* bad : {"AR+", "+AR", "AR++DLL", "NOPE", "AR+DLL+", "+"}) {
    EXPECT_FALSE(ddt::parse_combination(bad).has_value()) << bad;
  }
}

// Chunk capacity must not change functional behaviour, only costs. The
// line-scan flavour (UNR's instantiation, 2-byte header) takes any
// capacity too.
template <std::size_t Cap>
using RovingChunkedDll = ddt::ChunkedListContainer<Rec, true, true, Cap>;
template <std::size_t Cap>
using LineScanList = ddt::ChunkedListContainer<Rec, false, false, Cap,
                                               std::uint16_t, true>;

// What a workload observes: the final records in order, and the position
// find_key returned for every lookup along the way.
struct ChunkOutcome {
  std::vector<Rec> records;
  std::vector<std::size_t> found;
  bool operator==(const ChunkOutcome&) const = default;
};

template <typename C>
ChunkOutcome run_chunk_workload() {
  prof::MemoryProfile profile;
  C c(profile, [](const Rec& r) -> std::uint64_t { return r.key; });
  support::Rng rng(55);
  ChunkOutcome out;
  for (int i = 0; i < 600; ++i) {
    const double roll = rng.next_double();
    if (roll < 0.45 || c.size() == 0) {
      c.push_back({rng.next_u64() % 1000, static_cast<std::uint64_t>(i)});
    } else if (roll < 0.65) {
      c.insert(rng.uniform(0, c.size()), {999, 999});
    } else if (roll < 0.85) {
      c.erase(rng.uniform(0, c.size() - 1));
    } else if (roll < 0.95) {
      c.set(rng.uniform(0, c.size() - 1), {1, 2});
    } else {
      // Inserted records all carry key 999: alternate hits and random keys.
      const std::uint64_t key = i % 2 == 0 ? 999 : rng.next_u64() % 1000;
      out.found.push_back(c.find_key(key));
    }
  }
  c.for_each([&](std::size_t, const Rec& r) {
    out.records.push_back(r);
    return true;
  });
  return out;
}

TEST(ChunkCapacity, FunctionalBehaviourIndependentOfCapacity) {
  const auto small = run_chunk_workload<RovingChunkedDll<4>>();
  const auto medium = run_chunk_workload<RovingChunkedDll<16>>();
  const auto large = run_chunk_workload<RovingChunkedDll<64>>();
  EXPECT_EQ(small, medium);
  EXPECT_EQ(medium, large);
}

TEST(ChunkCapacity, LineScanFunctionalBehaviourIndependentOfCapacity) {
  const auto reference = run_chunk_workload<RovingChunkedDll<16>>();
  EXPECT_NE(std::count(reference.found.begin(), reference.found.end(),
                       ddt::npos),
            static_cast<std::ptrdiff_t>(reference.found.size()));
  EXPECT_EQ(run_chunk_workload<LineScanList<2>>(), reference);
  EXPECT_EQ(run_chunk_workload<LineScanList<4>>(), reference);
  EXPECT_EQ(run_chunk_workload<LineScanList<16>>(), reference);
}

template <typename C>
std::uint64_t allocations_for_512_appends() {
  prof::MemoryProfile profile;
  C c(profile);
  for (std::size_t i = 0; i < 512; ++i) c.push_back({i, i});
  return profile.counters().allocations;
}

template <std::size_t Cap>
using ChunkedSll = ddt::ChunkedListContainer<Rec, false, false, Cap>;

TEST(ChunkCapacity, SmallerChunksMoreAllocations) {
  EXPECT_GT(allocations_for_512_appends<ChunkedSll<4>>(),
            allocations_for_512_appends<ChunkedSll<32>>());
}

TEST(ChunkCapacity, LineScanSmallerChunksMoreAllocations) {
  const std::uint64_t cap2 = allocations_for_512_appends<LineScanList<2>>();
  const std::uint64_t cap4 = allocations_for_512_appends<LineScanList<4>>();
  const std::uint64_t cap16 = allocations_for_512_appends<LineScanList<16>>();
  EXPECT_GT(cap2, cap4);
  EXPECT_GT(cap4, cap16);
}

}  // namespace
}  // namespace ddtr
