// Behavioral equivalence of all ten DDT implementations: every kind must
// implement the same sequence semantics (the methodology swaps them behind
// unchanged application code). Includes a randomized model-based property
// test against std::vector as the reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ddt/factory.h"
#include "support/rng.h"

namespace ddtr {
namespace {

struct Record {
  int key = 0;
  int payload = 0;
  bool operator==(const Record&) const = default;
};

class DdtBehaviorTest : public ::testing::TestWithParam<ddt::DdtKind> {
 protected:
  prof::MemoryProfile profile_;
  std::unique_ptr<ddt::Container<Record>> make() {
    return ddt::make_container<Record>(GetParam(), profile_);
  }
};

TEST_P(DdtBehaviorTest, StartsEmpty) {
  auto c = make();
  EXPECT_EQ(c->size(), 0u);
  EXPECT_TRUE(c->empty());
  EXPECT_EQ(c->kind(), GetParam());
}

TEST_P(DdtBehaviorTest, PushBackThenGetPreservesOrder) {
  auto c = make();
  for (int i = 0; i < 50; ++i) c->push_back({i, i * 10});
  ASSERT_EQ(c->size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c->get(static_cast<std::size_t>(i)).key, i) << "index " << i;
  }
}

TEST_P(DdtBehaviorTest, GetIsRepeatableAtSameIndex) {
  auto c = make();
  for (int i = 0; i < 20; ++i) c->push_back({i, 0});
  EXPECT_EQ(c->get(7).key, 7);
  EXPECT_EQ(c->get(7).key, 7);  // roving caches must not corrupt reads
  EXPECT_EQ(c->get(3).key, 3);  // backwards re-read after forward roving
  EXPECT_EQ(c->get(19).key, 19);
  EXPECT_EQ(c->get(0).key, 0);
}

TEST_P(DdtBehaviorTest, SetOverwritesOnlyThatIndex) {
  auto c = make();
  for (int i = 0; i < 30; ++i) c->push_back({i, 0});
  c->set(11, {111, 1});
  for (int i = 0; i < 30; ++i) {
    const int expected = i == 11 ? 111 : i;
    EXPECT_EQ(c->get(static_cast<std::size_t>(i)).key, expected);
  }
}

TEST_P(DdtBehaviorTest, InsertAtFront) {
  auto c = make();
  for (int i = 0; i < 10; ++i) c->push_back({i, 0});
  c->insert(0, {-1, 0});
  ASSERT_EQ(c->size(), 11u);
  EXPECT_EQ(c->get(0).key, -1);
  EXPECT_EQ(c->get(1).key, 0);
  EXPECT_EQ(c->get(10).key, 9);
}

TEST_P(DdtBehaviorTest, InsertInMiddleShiftsTail) {
  auto c = make();
  for (int i = 0; i < 10; ++i) c->push_back({i, 0});
  c->insert(5, {50, 0});
  ASSERT_EQ(c->size(), 11u);
  EXPECT_EQ(c->get(4).key, 4);
  EXPECT_EQ(c->get(5).key, 50);
  EXPECT_EQ(c->get(6).key, 5);
}

TEST_P(DdtBehaviorTest, InsertAtEndEqualsPushBack) {
  auto c = make();
  for (int i = 0; i < 5; ++i) c->push_back({i, 0});
  c->insert(5, {5, 0});
  ASSERT_EQ(c->size(), 6u);
  EXPECT_EQ(c->get(5).key, 5);
}

TEST_P(DdtBehaviorTest, InsertIntoEmpty) {
  auto c = make();
  c->insert(0, {42, 0});
  ASSERT_EQ(c->size(), 1u);
  EXPECT_EQ(c->get(0).key, 42);
}

TEST_P(DdtBehaviorTest, EraseFront) {
  auto c = make();
  for (int i = 0; i < 8; ++i) c->push_back({i, 0});
  c->erase(0);
  ASSERT_EQ(c->size(), 7u);
  EXPECT_EQ(c->get(0).key, 1);
  EXPECT_EQ(c->get(6).key, 7);
}

TEST_P(DdtBehaviorTest, EraseBack) {
  auto c = make();
  for (int i = 0; i < 8; ++i) c->push_back({i, 0});
  c->erase(7);
  ASSERT_EQ(c->size(), 7u);
  EXPECT_EQ(c->get(6).key, 6);
  // Tail bookkeeping must survive: append again.
  c->push_back({99, 0});
  EXPECT_EQ(c->get(7).key, 99);
}

TEST_P(DdtBehaviorTest, EraseMiddle) {
  auto c = make();
  for (int i = 0; i < 9; ++i) c->push_back({i, 0});
  c->erase(4);
  ASSERT_EQ(c->size(), 8u);
  EXPECT_EQ(c->get(3).key, 3);
  EXPECT_EQ(c->get(4).key, 5);
}

TEST_P(DdtBehaviorTest, EraseToEmptyThenReuse) {
  auto c = make();
  for (int i = 0; i < 4; ++i) c->push_back({i, 0});
  for (int i = 0; i < 4; ++i) c->erase(0);
  EXPECT_TRUE(c->empty());
  c->push_back({7, 7});
  ASSERT_EQ(c->size(), 1u);
  EXPECT_EQ(c->get(0).key, 7);
}

TEST_P(DdtBehaviorTest, ClearReleasesEverything) {
  auto c = make();
  for (int i = 0; i < 100; ++i) c->push_back({i, 0});
  c->clear();
  EXPECT_EQ(c->size(), 0u);
  c->push_back({1, 1});
  EXPECT_EQ(c->get(0).key, 1);
}

std::uint64_t record_key(const Record& r) {
  return static_cast<std::uint64_t>(r.key);
}

// Keyed, a find_key before clear() builds HASH's index chunks, and one
// after it builds a fresh index the destructor must return.
TEST_P(DdtBehaviorTest, ClearThenDestroyBalancesAllocations) {
  for (const bool keyed : {false, true}) {
    prof::MemoryProfile profile;
    {
      auto c = ddt::make_container<Record>(GetParam(), profile,
                                           keyed ? &record_key : nullptr);
      for (int i = 0; i < 64; ++i) c->push_back({i, 0});
      c->erase(10);
      c->insert(3, {5, 5});
      if (keyed) {
        const std::uint64_t before = profile.counters().allocations;
        EXPECT_EQ(c->find_key(40), 40u);
        if (GetParam() == ddt::DdtKind::kOpenHash) {
          EXPECT_GT(profile.counters().allocations, before)
              << "find_key built no index";
        }
      }
      c->clear();
      if (keyed) {
        c->push_back({7, 0});
        EXPECT_EQ(c->find_key(7), 0u);
      }
    }
    EXPECT_EQ(profile.counters().live_bytes, 0u)
        << "container leaked charged bytes (keyed=" << keyed << ")";
    EXPECT_EQ(profile.counters().allocations,
              profile.counters().deallocations)
        << "keyed=" << keyed;
  }
}

TEST_P(DdtBehaviorTest, DestructorReleasesWithoutClear) {
  { // NOLINT
    auto c = make();
    for (int i = 0; i < 64; ++i) c->push_back({i, 0});
  }
  EXPECT_EQ(profile_.counters().live_bytes, 0u);
}

TEST_P(DdtBehaviorTest, ForEachVisitsInOrder) {
  auto c = make();
  for (int i = 0; i < 40; ++i) c->push_back({i, 0});
  std::vector<int> seen;
  c->for_each([&](std::size_t index, const Record& r) {
    EXPECT_EQ(index, seen.size());
    seen.push_back(r.key);
    return true;
  });
  ASSERT_EQ(seen.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST_P(DdtBehaviorTest, ForEachEarlyExitStops) {
  auto c = make();
  for (int i = 0; i < 40; ++i) c->push_back({i, 0});
  std::size_t visits = 0;
  c->for_each([&](std::size_t, const Record&) { return ++visits < 5; });
  EXPECT_EQ(visits, 5u);
}

TEST_P(DdtBehaviorTest, FindIfReturnsFirstMatch) {
  auto c = make();
  for (int i = 0; i < 25; ++i) c->push_back({i % 5, i});
  const std::size_t idx =
      c->find_if([](const Record& r) { return r.key == 3; });
  EXPECT_EQ(idx, 3u);
  const std::size_t none =
      c->find_if([](const Record& r) { return r.key == 99; });
  EXPECT_EQ(none, ddt::npos);
}

TEST_P(DdtBehaviorTest, MixedUseAfterRovingReads) {
  // Interleave reads (which move roving caches) with structural changes.
  auto c = make();
  for (int i = 0; i < 30; ++i) c->push_back({i, 0});
  EXPECT_EQ(c->get(20).key, 20);
  c->insert(10, {-10, 0});
  EXPECT_EQ(c->get(21).key, 20);  // shifted by the insert before it
  c->erase(0);
  EXPECT_EQ(c->get(20).key, 20);
  EXPECT_EQ(c->get(9).key, -10);
}

// Model-based fuzzing: random operation sequences must match std::vector.
TEST_P(DdtBehaviorTest, RandomOpsMatchReferenceModel) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  auto c = make();
  std::vector<Record> model;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.35 || model.empty()) {
      const Record r{static_cast<int>(rng.uniform(0, 1000)), step};
      c->push_back(r);
      model.push_back(r);
    } else if (roll < 0.50) {
      const auto idx = rng.uniform(0, model.size());  // may equal size()
      const Record r{static_cast<int>(rng.uniform(0, 1000)), -step};
      c->insert(idx, r);
      model.insert(model.begin() + static_cast<std::ptrdiff_t>(idx), r);
    } else if (roll < 0.65) {
      const auto idx = rng.uniform(0, model.size() - 1);
      c->erase(idx);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (roll < 0.80) {
      const auto idx = rng.uniform(0, model.size() - 1);
      const Record r{static_cast<int>(rng.uniform(0, 1000)), step * 7};
      c->set(idx, r);
      model[idx] = r;
    } else if (roll < 0.98) {
      const auto idx = rng.uniform(0, model.size() - 1);
      ASSERT_EQ(c->get(idx), model[idx]) << "step " << step;
    } else {
      c->clear();
      model.clear();
    }
    ASSERT_EQ(c->size(), model.size()) << "step " << step;
  }
  // Full final comparison via traversal.
  std::vector<Record> seen;
  c->for_each([&](std::size_t, const Record& r) {
    seen.push_back(r);
    return true;
  });
  EXPECT_EQ(seen, model);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DdtBehaviorTest, ::testing::ValuesIn(ddt::kAllDdtKinds),
    [](const ::testing::TestParamInfo<ddt::DdtKind>& p) {
      std::string name(ddt::to_string(p.param));
      for (char& ch : name) {
        if (ch == '(' || ch == ')') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ddtr
