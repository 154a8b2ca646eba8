// Golden counters: the modeled ProfileCounters of every (scenario,
// combination) of the four built-in studies, folded into one integer
// digest per study. Host-only changes (faster DDT bookkeeping, a new
// engine path, a different allocator) must leave every counter exactly
// where it was; any change that moves one changes a digest and fails here.
//
// Only the integer counters are hashed, never the formatted metrics, so
// the digests pin the accounting model itself, not the energy model's
// floating point. A deliberate accounting change bumps
// kDdtAccountingVersion and re-records these digests in the same commit.
//
// The positional digests pin the containers themselves, below the apps:
// every kind x {unkeyed, keyed} replays one seeded sequence of positional
// operations, folding the counters and every returned value after each
// operation, once through make_container's virtual interface and once
// through visit_container's concrete class.
// They catch a host-side change to a container's bookkeeping (a node
// index, a cursor, a column) that moves a charge or a result on an
// operation mix no built-in app happens to run.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>

#include "api/ddtr.h"
#include "ddt/factory.h"
#include "support/fnv_hash.h"
#include "support/rng.h"

namespace ddtr::core {
namespace {

void fold(support::Fnv1a64& hash, const prof::ProfileCounters& c) {
  hash.u64(c.reads).u64(c.writes).u64(c.bytes_read).u64(c.bytes_written);
  hash.u64(c.allocations).u64(c.deallocations).u64(c.live_bytes);
  hash.u64(c.peak_bytes).u64(c.cpu_ops);
}

std::uint64_t study_digest(const std::string& app) {
  const CaseStudy study =
      api::registry().make_study(app, CaseStudyOptions{}.scaled(0.05));
  const energy::EnergyModel model = make_paper_energy_model();
  support::Fnv1a64 hash;
  for (const Scenario& scenario : study.scenarios) {
    for (const ddt::DdtCombination& combo :
         ddt::enumerate_combinations(study.slot_kind_sets())) {
      fold(hash, simulate(scenario, combo, model).counters);
    }
  }
  return hash.digest();
}

TEST(GoldenCounters, Route) {
  EXPECT_EQ(study_digest("route"), 0xe1512ea231b3725full);
}

TEST(GoldenCounters, Url) {
  EXPECT_EQ(study_digest("url"), 0x87a1cc63cec44912ull);
}

TEST(GoldenCounters, Ipchains) {
  EXPECT_EQ(study_digest("ipchains"), 0x0da52ac6f2b382d3ull);
}

TEST(GoldenCounters, Drr) {
  EXPECT_EQ(study_digest("drr"), 0xc0576db0557bd359ull);
}

// 24 bytes, so unrolled chunks and UNR lines hold several records.
struct Rec {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t hits = 0;
};

std::uint64_t rec_key(const Rec& r) {
  return support::mix64(r.src * 31 + r.dst);
}

void fold(support::Fnv1a64& hash, const Rec& r) {
  hash.u64(r.src).u64(r.dst).u64(r.hits);
}

// One seeded run of 3,000 positional operations on one container. The
// size drifts up to a few hundred records, so list walks are long, and a
// rare clear() restarts it from empty.
template <typename C>
void replay_positional_ops(C& c, bool keyed,
                           std::uint64_t seed, support::Fnv1a64& hash) {
  support::Rng rng(seed);
  const auto fresh = [&](std::uint64_t hits) {
    return Rec{rng.uniform(0, 15), rng.uniform(0, 7), hits};
  };
  for (std::uint64_t step = 0; step < 3000; ++step) {
    const double roll = rng.next_double();
    const std::size_t n = c.size();
    if (roll < 0.22 || n == 0) {
      c.push_back(fresh(step));
    } else if (roll < 0.34) {
      // Drawn in sequence: argument evaluation order is unspecified.
      const Rec r = fresh(step);
      c.insert(rng.uniform(0, n), r);
    } else if (roll < 0.52) {
      fold(hash, c.get(rng.uniform(0, n - 1)));
    } else if (roll < 0.64) {
      const std::size_t i = rng.uniform(0, n - 1);
      Rec r = c.get(i);
      if (rng.chance(0.5)) {
        ++r.hits;
      } else {
        r = fresh(r.hits + 1);
      }
      c.set(i, r);
    } else if (roll < 0.78) {
      c.erase(rng.chance(0.3) ? 0 : rng.uniform(0, n - 1));
    } else if (roll < 0.86) {
      const std::size_t stop = rng.uniform(0, n);
      std::uint64_t visited = 0;
      c.for_each([&](std::size_t i, const Rec& r) {
        fold(hash, r);
        ++visited;
        return i < stop;
      });
      hash.u64(visited);
    } else if (roll < 0.998) {
      if (keyed) {
        const std::uint64_t key =
            rng.chance(0.7) ? rec_key(Rec{rng.uniform(0, 15),
                                          rng.uniform(0, 7), 0})
                            : rec_key(Rec{100, rng.uniform(0, 9), 0});
        hash.u64(c.find_key(key));
      } else {
        // Unkeyed containers search by predicate (a charged for_each).
        const std::uint64_t src = rng.uniform(0, 15);
        hash.u64(c.find_if([&](const Rec& r) { return r.src == src; }));
      }
    } else {
      c.clear();
    }
    hash.u64(c.size());
    fold(hash, c.profile().counters());
  }
}

// `visit` drives the concrete container through ddt::visit_container
// (static calls) instead of make_container's virtual interface; both
// must produce the same digest.
std::uint64_t positional_digest(ddt::DdtKind kind, bool visit) {
  support::Fnv1a64 hash;
  for (const bool keyed : {false, true}) {
    prof::MemoryProfile profile;
    const auto key_fn = keyed ? &rec_key : nullptr;
    const std::uint64_t seed = 0x90517 + static_cast<std::uint64_t>(kind);
    if (visit) {
      ddt::visit_container<Rec>(kind, profile, key_fn, [&](auto& c) {
        replay_positional_ops(c, keyed, seed, hash);
      });
    } else {
      auto c = ddt::make_container<Rec>(kind, profile, key_fn);
      replay_positional_ops(*c, keyed, seed, hash);
    }
  }
  return hash.digest();
}

TEST(GoldenCounters, PositionalOps) {
  struct Golden {
    ddt::DdtKind kind;
    std::uint64_t digest;
  };
  const Golden golden[] = {
      {ddt::DdtKind::kArray, 0xa211233b57849a43ull},
      {ddt::DdtKind::kArrayOfPointers, 0xfbeb778995463c9full},
      {ddt::DdtKind::kSll, 0x34b787558c850a05ull},
      {ddt::DdtKind::kDll, 0xe83b3d3fad8569e4ull},
      {ddt::DdtKind::kSllRoving, 0xc3372bca4ef44a04ull},
      {ddt::DdtKind::kDllRoving, 0xc966bc0fb58a90eeull},
      {ddt::DdtKind::kSllOfArrays, 0xa84a6e1ef73173a1ull},
      {ddt::DdtKind::kDllOfArrays, 0x20630490a21eab28ull},
      {ddt::DdtKind::kSllOfArraysRoving, 0x4e90418ce0ec334full},
      {ddt::DdtKind::kDllOfArraysRoving, 0x193d4ea1d83ebe0cull},
      {ddt::DdtKind::kOpenHash, 0x9abf0a25137f5245ull},
      {ddt::DdtKind::kUnrolledScan, 0xd3e0dab1e4a9854dull},
  };
  static_assert(std::size(golden) == ddt::kAllDdtKinds.size());
  for (const Golden& g : golden) {
    for (const bool visit : {false, true}) {
      const std::uint64_t got = positional_digest(g.kind, visit);
      EXPECT_EQ(got, g.digest)
          << ddt::to_string(g.kind) << (visit ? " (visit_container)" : "")
          << " digest 0x" << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace ddtr::core
