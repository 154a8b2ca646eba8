// Self-timed micro suite over the DDT library — the raw operation costs
// behind every trade-off in the paper (supporting material for §3.1).
// Sweeps every DdtKind across the access patterns that dominate the four
// case studies, and reports wall time plus charged memory accesses per
// operation. One BenchJson line per (kind, pattern) cell.
// keyed_find sits beside keyed_scan, the reference traversal it charges
// identically on every scan kind (ddt_keyed_scan_test holds that).
// positional is the trie's indexed walk, the unrolled lists' finger path.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

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
                                          prof::MemoryProfile& profile) {
  return ddt::make_container<Rec>(kind, profile, &rec_key);
}

struct Batch {
  std::uint64_t ops = 0;
  std::uint64_t accesses = 0;
};

// The DRR queue / conntrack eviction shape: steady-state insert/remove
// churn. This is the pattern where the node allocator is the cost —
// every step is one node birth and one node death.
Batch churn_batch(ddt::DdtKind kind) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile);
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
Batch fill_clear_batch(ddt::DdtKind kind) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < kFill; ++i) c->push_back({i, i, i});
    g_sink = g_sink + c->size();
    c->clear();
  }
  return {4 * kFill, profile.counters().accesses()};
}

// Full sequential visitation — the URL/Route scan loop.
Batch seq_scan_batch(ddt::DdtKind kind) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile);
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

Batch keyed_batch(ddt::DdtKind kind, Search search) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile);
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

Batch keyed_find_batch(ddt::DdtKind kind) {
  return keyed_batch(kind, &ddt::Container<Rec>::find_key);
}

Batch keyed_scan_batch(ddt::DdtKind kind) {
  return keyed_batch(kind, &ddt::Container<Rec>::scan_find_key);
}

// The radix trie's node pattern (route's slot 0): descents of gets at
// ascending indices that restart at 0, a set now and then, and a new node
// appended and read back after each descent.
Batch positional_batch(ddt::DdtKind kind) {
  prof::MemoryProfile profile;
  auto c = make(kind, profile);
  for (std::size_t i = 0; i < kFill; ++i) c->push_back({i, i, i});
  profile.reset();
  constexpr std::size_t kDescents = 64;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t ops = 0;
  for (std::size_t d = 0; d < kDescents; ++d) {
    for (std::size_t i = 0; i < c->size(); i += 1 + x % 48) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      const Rec r = c->get(i);
      g_sink = g_sink + r.a;
      ++ops;
      if (x % 4 == 0) {
        c->set(i, r);
        ++ops;
      }
    }
    c->push_back({d, d, d});
    g_sink = g_sink + c->get(c->size() - 1).a;
    ops += 2;
  }
  return {ops, profile.counters().accesses()};
}

struct Pattern {
  const char* name;
  Batch (*run)(ddt::DdtKind);
};

constexpr Pattern kPatterns[] = {
    {"queue_churn", &churn_batch},
    {"fill_clear", &fill_clear_batch},
    {"seq_scan", &seq_scan_batch},
    {"keyed_find", &keyed_find_batch},
    {"keyed_scan", &keyed_scan_batch},
    {"positional", &positional_batch},
};

struct CellResult {
  double ns_per_op = 0.0;
  double accesses_per_op = 0.0;
};

CellResult measure(const Pattern& pattern, ddt::DdtKind kind) {
  pattern.run(kind);  // warm-up (page-in, branch predictors)
  std::uint64_t ops = 0;
  std::uint64_t accesses = 0;
  int reps = 0;
  double seconds = 0.0;
  const auto t0 = Clock::now();
  do {
    const Batch batch = pattern.run(kind);
    ops += batch.ops;
    accesses += batch.accesses;
    ++reps;
    seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (seconds < 0.01 || reps < 3);
  return {seconds * 1e9 / static_cast<double>(ops),
          static_cast<double>(accesses) / static_cast<double>(ops)};
}

}  // namespace

int main() {
  for (const ddt::DdtKind kind : ddt::kAllDdtKinds) {
    for (const Pattern& pattern : kPatterns) {
      const CellResult result = measure(pattern, kind);
      bench::BenchJson json("ddt_micro");
      json.field("kind", std::string(ddt::to_string(kind)))
          .field("pattern", std::string(pattern.name))
          .field("ns_per_op", result.ns_per_op)
          .field("accesses_per_op", result.accesses_per_op);
      json.emit();
    }
  }
  return 0;
}
