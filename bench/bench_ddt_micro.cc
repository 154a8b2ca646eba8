// Self-timed micro suite over the DDT library — the raw operation costs
// behind every trade-off in the paper (supporting material for §3.1).
// Sweeps every DdtKind under both allocation policies (arena pool vs
// per-node heap) across the access patterns that dominate the four case
// studies, and reports wall time plus charged memory accesses per
// operation. One BenchJson line per (kind, pattern, policy) cell plus a
// summary line with the arena-vs-heap speedup on the insert/remove-heavy
// churn pattern — the number that justifies making the arena the default.
// keyed_find sits beside keyed_scan, the reference traversal it must
// charge identically; the bench exits 1 if a scan kind's accesses differ.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ddt/factory.h"

namespace {

using namespace ddtr;
using Clock = std::chrono::steady_clock;

struct Rec {
  std::uint64_t key = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

std::uint64_t rec_key(const Rec& r) { return r.key; }

// Checksum sink: keeps the optimizer from deleting measured work.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kFill = 1024;

std::unique_ptr<ddt::Container<Rec>> make(ddt::DdtKind kind,
                                          prof::MemoryProfile& profile,
                                          support::AllocPolicy policy) {
  return ddt::make_container<Rec>(kind, profile, &rec_key, policy);
}

struct Batch {
  std::uint64_t ops = 0;
  std::uint64_t accesses = 0;
};

// The DRR queue / conntrack eviction shape: steady-state insert/remove
// churn. This is the pattern where the allocation policy is the cost —
// every step is one node birth and one node death.
Batch churn_batch(ddt::DdtKind kind, support::AllocPolicy policy) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile, policy);
  for (std::size_t i = 0; i < 64; ++i) c->push_back({i, i, i});
  constexpr std::size_t kSteps = 4096;
  for (std::size_t i = 0; i < kSteps; ++i) {
    c->push_back({i, i, i});
    g_sink = g_sink + c->get(0).a;
    c->erase(0);
  }
  return {kSteps, profile.counters().accesses()};
}

// Bulk build + teardown: the growth-path allocation cost.
Batch fill_clear_batch(ddt::DdtKind kind, support::AllocPolicy policy) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile, policy);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < kFill; ++i) c->push_back({i, i, i});
    g_sink = g_sink + c->size();
    c->clear();
  }
  return {4 * kFill, profile.counters().accesses()};
}

// Full sequential visitation — the URL/Route scan loop.
Batch seq_scan_batch(ddt::DdtKind kind, support::AllocPolicy policy) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile, policy);
  for (std::size_t i = 0; i < kFill; ++i) c->push_back({i, i, i});
  profile.reset();
  constexpr std::size_t kRounds = 32;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::uint64_t sum = 0;
    c->for_each([&](std::size_t, const Rec& r) {
      sum += r.a;
      return true;
    });
    g_sink = g_sink + sum;
  }
  return {kRounds * kFill, profile.counters().accesses()};
}

// Keyed lookup mix (~50% hits) — the ipchains conntrack / DRR flow-table
// classification step, where HASH probes, UNR line-scans and the other
// kinds search their key column. `search` is find_key, or scan_find_key
// for the reference walk that re-derives every visited record's key.
using Search = std::size_t (ddt::Container<Rec>::*)(std::uint64_t) const;

Batch keyed_batch(ddt::DdtKind kind, support::AllocPolicy policy,
                  Search search) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile, policy);
  for (std::size_t i = 0; i < kFill; ++i) c->push_back({i, i, i});
  profile.reset();
  constexpr std::size_t kLookups = 2048;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < kLookups; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    g_sink = g_sink + ((*c).*search)(x % (2 * kFill));
  }
  return {kLookups, profile.counters().accesses()};
}

Batch keyed_find_batch(ddt::DdtKind kind, support::AllocPolicy policy) {
  return keyed_batch(kind, policy, &ddt::Container<Rec>::find_key);
}

Batch keyed_scan_batch(ddt::DdtKind kind, support::AllocPolicy policy) {
  return keyed_batch(kind, policy, &ddt::Container<Rec>::scan_find_key);
}

struct Pattern {
  const char* name;
  Batch (*run)(ddt::DdtKind, support::AllocPolicy);
};

constexpr Pattern kPatterns[] = {
    {"queue_churn", &churn_batch},
    {"fill_clear", &fill_clear_batch},
    {"seq_scan", &seq_scan_batch},
    {"keyed_find", &keyed_find_batch},
    {"keyed_scan", &keyed_scan_batch},
};

struct CellResult {
  double ns_per_op = 0.0;
  double accesses_per_op = 0.0;
};

CellResult measure(const Pattern& pattern, ddt::DdtKind kind,
                   support::AllocPolicy policy) {
  pattern.run(kind, policy);  // warm-up (page-in, branch predictors)
  std::uint64_t ops = 0;
  std::uint64_t accesses = 0;
  int reps = 0;
  double seconds = 0.0;
  const auto t0 = Clock::now();
  do {
    const Batch batch = pattern.run(kind, policy);
    ops += batch.ops;
    accesses += batch.accesses;
    ++reps;
    seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (seconds < 0.01 || reps < 3);
  return {seconds * 1e9 / static_cast<double>(ops),
          static_cast<double>(accesses) / static_cast<double>(ops)};
}

// Kinds whose storage actually goes through the pool — the arrays ignore
// the policy, so their arena/heap ratio is noise by construction.
bool pool_backed(ddt::DdtKind kind) {
  return kind != ddt::DdtKind::kArray &&
         kind != ddt::DdtKind::kArrayOfPointers;
}

}  // namespace

int main() {
  // HASH probes its index instead of scanning, so only the scan kinds
  // must charge keyed_find exactly as keyed_scan.
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    for (const auto policy :
         {support::AllocPolicy::kArena, support::AllocPolicy::kHeap}) {
      if (kind == ddt::DdtKind::kOpenHash) continue;
      const std::uint64_t find = keyed_find_batch(kind, policy).accesses;
      const std::uint64_t scan = keyed_scan_batch(kind, policy).accesses;
      if (find != scan) {
        std::cerr << "[ddt_micro] " << ddt::to_string(kind)
                  << " keyed_find charges " << find
                  << " accesses, keyed_scan " << scan << "\n";
        return 1;
      }
    }
  }

  std::vector<double> churn_ratios;
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    for (const Pattern& pattern : kPatterns) {
      CellResult arena;
      CellResult heap;
      for (const auto policy :
           {support::AllocPolicy::kArena, support::AllocPolicy::kHeap}) {
        const CellResult result = measure(pattern, kind, policy);
        (policy == support::AllocPolicy::kArena ? arena : heap) = result;
        bench::BenchJson json("ddt_micro");
        json.field("kind", std::string(ddt::to_string(kind)))
            .field("pattern", std::string(pattern.name))
            .field("policy", policy == support::AllocPolicy::kArena
                                 ? std::string("arena")
                                 : std::string("heap"))
            .field("ns_per_op", result.ns_per_op)
            .field("accesses_per_op", result.accesses_per_op);
        json.emit();
      }
      if (pool_backed(kind) && std::string(pattern.name) == "queue_churn") {
        const double ratio = heap.ns_per_op / arena.ns_per_op;
        churn_ratios.push_back(ratio);
        std::cerr << "[ddt_micro] " << ddt::to_string(kind)
                  << " queue_churn arena speedup: " << ratio << "x ("
                  << heap.ns_per_op << " -> " << arena.ns_per_op
                  << " ns/op)\n";
      }
    }
  }

  double log_sum = 0.0;
  double min_ratio = 1e300;
  for (const double ratio : churn_ratios) {
    log_sum += std::log(ratio);
    min_ratio = std::min(min_ratio, ratio);
  }
  const double geomean =
      churn_ratios.empty()
          ? 1.0
          : std::exp(log_sum / static_cast<double>(churn_ratios.size()));
  bench::BenchJson summary("ddt_micro_summary");
  summary.field("pattern", std::string("queue_churn"))
      .field("pool_backed_kinds",
             static_cast<std::uint64_t>(churn_ratios.size()))
      .field("arena_speedup_geomean", geomean)
      .field("arena_speedup_min", min_ratio);
  summary.emit();
  std::cerr << "[ddt_micro] arena vs heap on queue_churn: geomean "
            << geomean << "x, min " << min_ratio << "x over "
            << churn_ratios.size() << " pool-backed kinds\n";
  return 0;
}
