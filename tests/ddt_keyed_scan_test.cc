// Counter neutrality of the key column: on every scan kind, find_key
// (a search of the host-side key column plus a bulk charge) must return
// what scan_find_key (the layout's traversal, re-deriving each visited
// record's key) returns, charge exactly the same counters, and leave the
// roving cursor in the same place. Twin containers replay one seeded
// operation sequence; the only difference is which search they call. Two
// inputs: a mixed sequence over a small key domain (duplicates, edits,
// clears), and a lookup burst over a large distinct-key fill.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ddt/factory.h"
#include "support/fnv_hash.h"
#include "support/rng.h"

namespace ddtr {
namespace {

// 24 bytes: two records per UNR line, ten per unrolled-list chunk, so the
// chunk walks cross many boundaries.
struct Rec {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t hits = 0;
  bool operator==(const Rec&) const = default;
};

// Derived, not a stored field: the key column must hold what the key
// function computes.
std::uint64_t rec_key(const Rec& r) {
  return support::mix64(r.src * 31 + r.dst);
}

class KeyedScanTest : public ::testing::TestWithParam<ddt::DdtKind> {
 protected:
  void SetUp() override {
    column_ = ddt::make_container<Rec>(GetParam(), column_profile_, &rec_key);
    scan_ = ddt::make_container<Rec>(GetParam(), scan_profile_, &rec_key);
  }

  // Both twins must have charged exactly the same so far.
  void expect_same_counters(const std::string& after) const {
    ASSERT_EQ(column_profile_.counters(), scan_profile_.counters())
        << "after " << after;
  }

  // Searches both twins, then reads one record: a roving cursor left in a
  // different place would charge that read differently.
  void find_both(std::uint64_t key, support::Rng& rng,
                 const std::string& step) {
    const std::size_t got = column_->find_key(key);
    const std::size_t want = scan_->scan_find_key(key);
    ASSERT_EQ(got, want) << step;
    expect_same_counters(step + " find_key");
    if (HasFatalFailure() || column_->empty()) return;
    const std::size_t i = got != ddt::npos && rng.chance(0.5)
                              ? got
                              : rng.uniform(0, column_->size() - 1);
    ASSERT_EQ(column_->get(i), scan_->get(i)) << step;
    expect_same_counters(step + " get after find");
  }

  prof::MemoryProfile column_profile_;
  prof::MemoryProfile scan_profile_;
  std::unique_ptr<ddt::Container<Rec>> column_;
  std::unique_ptr<ddt::Container<Rec>> scan_;
};

TEST_P(KeyedScanTest, FindKeyChargesTheReferenceScan) {
  support::Rng rng(0x5eed + static_cast<std::uint64_t>(GetParam()));
  // Keys from a small domain, so duplicates (first match wins) and hits
  // deep in the container are common; misses come from outside it.
  const auto fresh = [&](std::uint64_t hits) {
    return Rec{rng.uniform(0, 11), rng.uniform(0, 5), hits};
  };
  std::vector<Rec> mirror;  // logical content, read without charges
  find_both(rec_key(Rec{}), rng, "empty");
  for (int step = 0; step < 1500; ++step) {
    const std::string at = "step " + std::to_string(step);
    const double roll = rng.next_double();
    const std::size_t n = column_->size();
    if (roll < 0.30 || n == 0) {
      const Rec r = fresh(static_cast<std::uint64_t>(step));
      column_->push_back(r);
      scan_->push_back(r);
      mirror.push_back(r);
    } else if (roll < 0.40) {
      const std::size_t i = rng.uniform(0, n);
      const Rec r = fresh(static_cast<std::uint64_t>(step));
      column_->insert(i, r);
      scan_->insert(i, r);
      mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(i), r);
    } else if (roll < 0.50) {
      // Half the overwrites keep the record's key, half rewrite it.
      const std::size_t i = rng.uniform(0, n - 1);
      Rec r = mirror[i];
      if (rng.chance(0.5)) {
        ++r.hits;
      } else {
        r = fresh(r.hits + 1);
      }
      column_->set(i, r);
      scan_->set(i, r);
      mirror[i] = r;
    } else if (roll < 0.60) {
      const std::size_t i = rng.chance(0.5) ? 0 : rng.uniform(0, n - 1);
      column_->erase(i);
      scan_->erase(i);
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 0.88) {
      // A stored record's key (hit), or one no record carries (miss).
      const std::uint64_t key =
          rng.chance(0.7) ? rec_key(mirror[rng.uniform(0, n - 1)])
                          : rec_key(Rec{100 + rng.uniform(0, 9), 0, 0});
      find_both(key, rng, at);
    } else if (roll < 0.94) {
      const std::size_t i = rng.uniform(0, n - 1);
      ASSERT_EQ(column_->get(i), mirror[i]) << at;
      ASSERT_EQ(scan_->get(i), mirror[i]) << at;
    } else if (roll < 0.99) {
      const std::size_t stop = rng.uniform(0, n);
      std::vector<Rec> a;
      std::vector<Rec> b;
      column_->for_each([&](std::size_t i, const Rec& r) {
        a.push_back(r);
        return i < stop;
      });
      scan_->for_each([&](std::size_t i, const Rec& r) {
        b.push_back(r);
        return i < stop;
      });
      ASSERT_EQ(a, b) << at;
    } else {
      column_->clear();
      scan_->clear();
      mirror.clear();
      find_both(rec_key(Rec{}), rng, at + " cleared");
    }
    expect_same_counters(at);
    if (HasFatalFailure()) return;
  }
}

// A flow-table lookup burst: a large fill of distinct keys, then
// back-to-back searches (about half of them hits) with no other op in
// between, so each search starts where the last one left a roving cursor
// and the walks cross hundreds of chunks.
TEST_P(KeyedScanTest, FindKeyChargesTheReferenceScanOnALargeDistinctFill) {
  constexpr std::uint64_t kFill = 1024;
  for (std::uint64_t i = 0; i < kFill; ++i) {
    column_->push_back(Rec{i, 0, i});
    scan_->push_back(Rec{i, 0, i});
  }
  expect_same_counters("fill");
  support::Rng rng(0xf10e + static_cast<std::uint64_t>(GetParam()));
  for (int lookup = 0; lookup < 2048; ++lookup) {
    const std::uint64_t key =
        rec_key(Rec{rng.uniform(0, 2 * kFill - 1), 0, 0});
    ASSERT_EQ(column_->find_key(key), scan_->scan_find_key(key))
        << "lookup " << lookup;
    expect_same_counters("lookup " + std::to_string(lookup));
    if (HasFatalFailure()) return;
  }
}

const ddt::DdtKind kScanKinds[] = {
    ddt::DdtKind::kArray,          ddt::DdtKind::kArrayOfPointers,
    ddt::DdtKind::kSll,            ddt::DdtKind::kDll,
    ddt::DdtKind::kSllRoving,      ddt::DdtKind::kDllRoving,
    ddt::DdtKind::kSllOfArrays,    ddt::DdtKind::kDllOfArrays,
    ddt::DdtKind::kSllOfArraysRoving, ddt::DdtKind::kDllOfArraysRoving,
    ddt::DdtKind::kUnrolledScan,
};

INSTANTIATE_TEST_SUITE_P(
    ScanKinds, KeyedScanTest, ::testing::ValuesIn(kScanKinds),
    [](const ::testing::TestParamInfo<ddt::DdtKind>& p) {
      std::string name(ddt::to_string(p.param));
      for (char& ch : name) {
        if (ch == '(' || ch == ')') ch = '_';
      }
      return name;
    });

// An unkeyed container keeps no column: its positional writes must leave
// the (empty) column alone, and both searches refuse to run.
TEST(KeyedScan, UnkeyedContainersRefuseBothSearches) {
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    prof::MemoryProfile profile;
    auto c = ddt::make_container<Rec>(kind, profile);
    c->push_back(Rec{1, 2, 3});
    c->set(0, Rec{4, 5, 6});
    c->insert(0, Rec{7, 8, 9});
    c->erase(1);
    EXPECT_THROW(c->find_key(0), std::logic_error) << ddt::to_string(kind);
    EXPECT_THROW(c->scan_find_key(0), std::logic_error)
        << ddt::to_string(kind);
  }
}

}  // namespace
}  // namespace ddtr
