// Access-count and footprint characteristics that drive the whole
// exploration: arrays must be cheap to index, lists cheap to edit at the
// front, roving pointers must pay off under sequential access, doubly
// linked variants must exploit the nearer end, unrolled lists must
// amortize pointer overhead. If these inequalities break, every Pareto
// result downstream is meaningless.
#include <gtest/gtest.h>

#include <memory>

#include "ddt/factory.h"

namespace ddtr {
namespace {

struct Rec {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

// Accesses charged by `fn` on a fresh container of `kind` pre-filled with
// `prefill` records.
template <typename Fn>
std::uint64_t accesses_for(ddt::DdtKind kind, std::size_t prefill, Fn&& fn) {
  prof::MemoryProfile profile;
  auto c = ddt::make_container<Rec>(kind, profile);
  for (std::size_t i = 0; i < prefill; ++i) c->push_back({i, i});
  const std::uint64_t before = profile.counters().accesses();
  fn(*c);
  return profile.counters().accesses() - before;
}

std::uint64_t peak_footprint(ddt::DdtKind kind, std::size_t n) {
  prof::MemoryProfile profile;
  auto c = ddt::make_container<Rec>(kind, profile);
  for (std::size_t i = 0; i < n; ++i) c->push_back({i, i});
  return profile.counters().peak_bytes;
}

constexpr std::size_t kN = 512;

TEST(DdtAccounting, ArrayRandomGetIsConstant) {
  const auto cost_at = [](std::size_t idx) {
    return accesses_for(ddt::DdtKind::kArray, kN,
                        [idx](auto& c) { c.get(idx); });
  };
  EXPECT_EQ(cost_at(0), cost_at(kN - 1));
  EXPECT_EQ(cost_at(kN / 2), 1u);
}

TEST(DdtAccounting, SllGetGrowsLinearlyWithIndex) {
  const auto cost_at = [](std::size_t idx) {
    return accesses_for(ddt::DdtKind::kSll, kN,
                        [idx](auto& c) { c.get(idx); });
  };
  EXPECT_GT(cost_at(kN - 1), cost_at(kN / 2));
  EXPECT_GT(cost_at(kN / 2), cost_at(8));
  // Hop accounting: reaching index i costs i+1 pointer reads + 1 record.
  EXPECT_EQ(cost_at(10), 12u);
}

TEST(DdtAccounting, ArrayGetFarCheaperThanSllGetAtHighIndex) {
  const auto array_cost = accesses_for(ddt::DdtKind::kArray, kN, [](auto& c) {
    for (std::size_t i = 0; i < kN; ++i) c.get(i);
  });
  const auto sll_cost = accesses_for(ddt::DdtKind::kSll, kN, [](auto& c) {
    for (std::size_t i = 0; i < kN; ++i) c.get(i);
  });
  EXPECT_GT(sll_cost, array_cost * 20);
}

TEST(DdtAccounting, DllWalksFromNearerEnd) {
  const auto near_tail = accesses_for(ddt::DdtKind::kDll, kN, [](auto& c) {
    c.get(kN - 2);
  });
  const auto sll_near_tail = accesses_for(
      ddt::DdtKind::kSll, kN, [](auto& c) { c.get(kN - 2); });
  EXPECT_LT(near_tail, sll_near_tail / 10);
}

TEST(DdtAccounting, RovingMakesSequentialGetsConstant) {
  const auto roving = accesses_for(ddt::DdtKind::kSllRoving, kN, [](auto& c) {
    for (std::size_t i = 0; i < kN; ++i) c.get(i);
  });
  const auto plain = accesses_for(ddt::DdtKind::kSll, kN, [](auto& c) {
    for (std::size_t i = 0; i < kN; ++i) c.get(i);
  });
  // Sequential scan via roving is O(n); via plain SLL it is O(n^2).
  EXPECT_LT(roving, plain / 50);
}

TEST(DdtAccounting, RovingResumeAfterFindIsCheap) {
  // find_if leaves the roving cache at the match; the following get/set
  // must not re-traverse.
  const auto resume = accesses_for(
      ddt::DdtKind::kSllRoving, kN, [](auto& c) {
        const std::size_t idx =
            c.find_if([](const Rec& r) { return r.a == kN - 10; });
        c.get(idx);
      });
  const auto no_roving = accesses_for(
      ddt::DdtKind::kSll, kN, [](auto& c) {
        const std::size_t idx =
            c.find_if([](const Rec& r) { return r.a == kN - 10; });
        c.get(idx);
      });
  EXPECT_LT(resume, no_roving * 3 / 4);
}

TEST(DdtAccounting, DllRovingWalksBackwardFromCache) {
  const auto cost = accesses_for(ddt::DdtKind::kDllRoving, kN, [](auto& c) {
    c.get(kN / 2);      // park the cache mid-list
    c.get(kN / 2 - 1);  // one step back
  });
  // Both reads together should cost far less than two head walks.
  EXPECT_LT(cost, kN);
}

TEST(DdtAccounting, ChunkedListHopsLessThanPlainList) {
  const auto chunked = accesses_for(
      ddt::DdtKind::kSllOfArrays, kN, [](auto& c) { c.get(kN - 1); });
  const auto plain = accesses_for(ddt::DdtKind::kSll, kN,
                                  [](auto& c) { c.get(kN - 1); });
  EXPECT_LT(chunked, plain / 4);
}

TEST(DdtAccounting, ArrayMiddleInsertDearerThanSllMiddleInsert) {
  // Moving half the records (32 B each) vs walking pointers: the byte
  // traffic tells the story even when access counts are close.
  prof::MemoryProfile array_profile;
  {
    auto c = ddt::make_container<Rec>(ddt::DdtKind::kArray, array_profile);
    for (std::size_t i = 0; i < kN; ++i) c->push_back({i, i});
    const auto before = array_profile.counters();
    c->insert(4, {0, 0});
    EXPECT_GT(array_profile.counters().bytes_written - before.bytes_written,
              (kN - 8) * sizeof(Rec));
  }
  const auto sll_front = accesses_for(ddt::DdtKind::kSll, kN, [](auto& c) {
    c.insert(4, {0, 0});
  });
  EXPECT_LT(sll_front, 16u);
}

TEST(DdtAccounting, EraseFrontCheapForListsDearForArrays) {
  const auto sll = accesses_for(ddt::DdtKind::kSll, kN,
                                [](auto& c) { c.erase(0); });
  const auto array = accesses_for(ddt::DdtKind::kArray, kN,
                                  [](auto& c) { c.erase(0); });
  EXPECT_LT(sll, 8u);
  EXPECT_GT(array, kN);
}

TEST(DdtAccounting, FootprintOrdering) {
  const auto array = peak_footprint(ddt::DdtKind::kArray, kN);
  const auto sll = peak_footprint(ddt::DdtKind::kSll, kN);
  const auto dll = peak_footprint(ddt::DdtKind::kDll, kN);
  const auto chunked = peak_footprint(ddt::DdtKind::kSllOfArrays, kN);
  // Per-node headers make lists fatter than the array even with the
  // array's doubling slack; DLL is fatter than SLL; chunking amortizes.
  EXPECT_GT(sll, array);
  EXPECT_GT(dll, sll);
  EXPECT_LT(chunked, sll);
}

TEST(DdtAccounting, ArrayOfPointersMovesOnlyPointers) {
  prof::MemoryProfile arp;
  {
    auto c = ddt::make_container<Rec>(ddt::DdtKind::kArrayOfPointers, arp);
    // kN + 1 so the following insert does not land on a capacity boundary
    // (growth reallocation would legitimately copy every pointer).
    for (std::size_t i = 0; i < kN + 1; ++i) c->push_back({i, i});
    const auto before = arp.counters();
    c->insert(0, {0, 0});
    const auto moved_bytes =
        arp.counters().bytes_written - before.bytes_written;
    // Pointer moves (8 B) + one record write, not record-sized moves.
    EXPECT_LT(moved_bytes,
              (kN + 2) * ddt::kPointerBytes + 2 * sizeof(Rec) + 64);
  }
}

TEST(DdtAccounting, WritesAndReadsAreSeparated) {
  prof::MemoryProfile profile;
  auto c = ddt::make_container<Rec>(ddt::DdtKind::kArray, profile);
  c->push_back({1, 1});
  EXPECT_EQ(profile.counters().reads, 0u);
  EXPECT_GE(profile.counters().writes, 1u);
  c->get(0);
  EXPECT_EQ(profile.counters().reads, 1u);
}

}  // namespace
}  // namespace ddtr
