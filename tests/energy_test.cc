// Energy/time model tests: the exploration only needs the cost model to be
// deterministic and monotone — these tests pin exactly those properties.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "core/case_studies.h"
#include "energy/energy_model.h"
#include "energy/memory_hierarchy.h"
#include "energy/metrics.h"
#include "energy/sram_macro.h"
#include "profiling/memory_profile.h"
#include "support/rng.h"

namespace ddtr::energy {
namespace {

TEST(SramMacro, RoundsCapacityUpToRowGranularity) {
  EXPECT_EQ(SramMacro(1).capacity_bytes(), 64u);
  EXPECT_EQ(SramMacro(64).capacity_bytes(), 64u);
  EXPECT_EQ(SramMacro(65).capacity_bytes(), 128u);
  EXPECT_EQ(SramMacro(100000).capacity_bytes(), 100032u);
}

TEST(SramMacro, RoundingHelpers) {
  EXPECT_EQ(round_up_pow2(100000, 64), 131072u);
  EXPECT_EQ(round_up_pow2(1, 64), 64u);
  EXPECT_EQ(round_up_multiple(0, 64), 64u);
  EXPECT_EQ(round_up_multiple(128, 64), 128u);
  EXPECT_EQ(round_up_multiple(129, 64), 192u);
}

TEST(SramMacro, EnergyMonotoneInCapacity) {
  double prev = 0.0;
  for (std::uint64_t cap = 64; cap <= (1u << 22); cap <<= 1) {
    const SramMacro macro(cap);
    EXPECT_GT(macro.read_energy_pj(), prev) << "capacity " << cap;
    prev = macro.read_energy_pj();
  }
}

TEST(SramMacro, LatencyMonotoneInCapacity) {
  EXPECT_LT(SramMacro(1024).access_time_ns(),
            SramMacro(1024 * 1024).access_time_ns());
}

TEST(SramMacro, WritesCostMoreThanReads) {
  const SramMacro macro(4096);
  EXPECT_GT(macro.write_energy_pj(), macro.read_energy_pj());
}

TEST(SramMacro, LeakageScalesLinearly) {
  const SramMacro small(1024), big(4096);
  EXPECT_NEAR(big.leakage_mw() / small.leakage_mw(), 4.0, 1e-9);
}

TEST(SramMacro, PlausibleAbsoluteNumbers) {
  // ~130nm sanity window: 1 KiB macro in single-digit-to-tens pJ, 1 MiB
  // in hundreds of pJ.
  EXPECT_GT(SramMacro(1024).read_energy_pj(), 5.0);
  EXPECT_LT(SramMacro(1024).read_energy_pj(), 50.0);
  EXPECT_GT(SramMacro(1 << 20).read_energy_pj(), 100.0);
  EXPECT_LT(SramMacro(1 << 20).read_energy_pj(), 1000.0);
}

prof::ProfileCounters counters(std::uint64_t reads, std::uint64_t writes,
                               std::uint64_t peak,
                               std::uint64_t cpu_ops = 0) {
  prof::ProfileCounters c;
  c.reads = reads;
  c.writes = writes;
  c.bytes_read = reads * 8;
  c.bytes_written = writes * 8;
  c.peak_bytes = peak;
  c.cpu_ops = cpu_ops;
  return c;
}

TEST(MemoryHierarchy, ScratchpadMoreAccessesMoreEnergy) {
  const auto h = MemoryHierarchy::scratchpad();
  const auto low = h.cost(counters(1000, 100, 4096), 1.6);
  const auto high = h.cost(counters(2000, 200, 4096), 1.6);
  EXPECT_GT(high.dynamic_energy_pj, low.dynamic_energy_pj);
  EXPECT_GT(high.memory_cycles, low.memory_cycles);
}

TEST(MemoryHierarchy, ScratchpadBiggerFootprintMoreEnergyPerAccess) {
  const auto h = MemoryHierarchy::scratchpad();
  const auto small = h.cost(counters(1000, 0, 1 << 10), 1.6);
  const auto big = h.cost(counters(1000, 0, 1 << 20), 1.6);
  EXPECT_GT(big.dynamic_energy_pj, small.dynamic_energy_pj);
  EXPECT_GT(big.leakage_power_mw, small.leakage_power_mw);
}

TEST(MemoryHierarchy, CachedFootprintBeyondL1CostsMore) {
  const auto h = MemoryHierarchy::cached(16 * 1024, 512 * 1024);
  const auto fits = h.cost(counters(100000, 0, 8 * 1024), 1.6);
  const auto spills = h.cost(counters(100000, 0, 4 * 1024 * 1024), 1.6);
  EXPECT_GT(spills.dynamic_energy_pj, fits.dynamic_energy_pj * 1.5);
  EXPECT_GT(spills.memory_cycles, fits.memory_cycles);
}

TEST(MemoryHierarchy, CachedDeterministic) {
  const auto h = MemoryHierarchy::cached();
  const auto a = h.cost(counters(12345, 678, 90000), 1.6);
  const auto b = h.cost(counters(12345, 678, 90000), 1.6);
  EXPECT_EQ(a.dynamic_energy_pj, b.dynamic_energy_pj);
  EXPECT_EQ(a.memory_cycles, b.memory_cycles);
}

TEST(EnergyModel, TimeIncludesCpuAndMemory) {
  const EnergyModel model{MemoryHierarchy::cached()};
  const auto mem_only = model.evaluate(counters(1000, 0, 1024));
  const auto with_cpu = model.evaluate(counters(1000, 0, 1024, 1000000));
  EXPECT_GT(with_cpu.time_s, mem_only.time_s);
}

TEST(EnergyModel, MetricsMirrorCounters) {
  const EnergyModel model{MemoryHierarchy::cached()};
  const auto m = model.evaluate(counters(700, 300, 5000));
  EXPECT_EQ(m.accesses, 1000u);
  EXPECT_EQ(m.footprint_bytes, 5000u);
  EXPECT_GT(m.energy_mj, 0.0);
  EXPECT_GT(m.time_s, 0.0);
}

TEST(EnergyModel, EnergyMonotoneInAccesses) {
  const EnergyModel model{MemoryHierarchy::cached()};
  double prev = 0.0;
  for (std::uint64_t n = 1000; n <= 1000000; n *= 10) {
    const auto m = model.evaluate(counters(n, n / 4, 64 * 1024));
    EXPECT_GT(m.energy_mj, prev);
    prev = m.energy_mj;
  }
}

// The premise of per-slot dominance pruning: raising any one counter of a
// run never lowers any of its metrics. Seeded random counters (each field
// 0 to 2^40, scale drawn per field), every field raised in turn by a
// random amount, under both hierarchies and the paper's model.
using CounterField = std::uint64_t prof::ProfileCounters::*;
constexpr std::array<std::pair<CounterField, const char*>, 9>
    kCounterFields = {{
    {&prof::ProfileCounters::reads, "reads"},
    {&prof::ProfileCounters::writes, "writes"},
    {&prof::ProfileCounters::bytes_read, "bytes_read"},
    {&prof::ProfileCounters::bytes_written, "bytes_written"},
    {&prof::ProfileCounters::allocations, "allocations"},
    {&prof::ProfileCounters::deallocations, "deallocations"},
    {&prof::ProfileCounters::live_bytes, "live_bytes"},
    {&prof::ProfileCounters::peak_bytes, "peak_bytes"},
    {&prof::ProfileCounters::cpu_ops, "cpu_ops"},
}};
static_assert(sizeof(prof::ProfileCounters) ==
                  kCounterFields.size() * sizeof(std::uint64_t),
              "a new counter field must join kCounterFields");

// Uniform in [0, 2^bits) for a bits drawn uniformly from [0, 40]: every
// magnitude from empty runs to 10^12 is drawn about equally often.
std::uint64_t draw_counter(support::Rng& rng) {
  const std::uint64_t bits = rng.uniform(0, 40);
  return bits == 0 ? 0 : rng.next_u64() >> (64 - bits);
}

TEST(EnergyModel, NoMetricDecreasesWhenAnyCounterRises) {
  const std::array<std::pair<const char*, EnergyModel>, 3> models = {{
      {"scratchpad", EnergyModel{MemoryHierarchy::scratchpad()}},
      {"cached", EnergyModel{MemoryHierarchy::cached()}},
      {"paper", core::make_paper_energy_model()},
  }};
  support::Rng rng(20);
  std::size_t violations = 0;
  std::string first;
  for (int draw = 0; draw < 4000; ++draw) {
    prof::ProfileCounters base;
    for (const auto& [field, name] : kCounterFields) {
      base.*field = draw_counter(rng);
    }
    for (const auto& [field, field_name] : kCounterFields) {
      prof::ProfileCounters raised = base;
      raised.*field += 1 + draw_counter(rng);
      for (const auto& [model_name, model] : models) {
        const auto before = model.evaluate(base).as_array();
        const auto after = model.evaluate(raised).as_array();
        for (std::size_t m = 0; m < kMetricCount; ++m) {
          if (after[m] >= before[m]) continue;
          if (violations++ == 0) {
            std::ostringstream os;
            os << model_name << ": raising " << field_name << " of {"
               << base << "} to " << raised.*field << " lowers "
               << kMetricNames[m] << " " << before[m] << " -> "
               << after[m];
            first = os.str();
          }
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u) << first;
}

TEST(Dominates, StrictAndEqualCases) {
  Metrics a{1.0, 1.0, 100, 100};
  Metrics b{2.0, 2.0, 200, 200};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, a));  // equal: no strict improvement
}

TEST(Dominates, TradeoffNeitherDominates) {
  Metrics fast_hungry{5.0, 1.0, 100, 100};
  Metrics slow_frugal{1.0, 5.0, 100, 100};
  EXPECT_FALSE(dominates(fast_hungry, slow_frugal));
  EXPECT_FALSE(dominates(slow_frugal, fast_hungry));
}

TEST(Dominates, SingleMetricEdge) {
  Metrics a{1.0, 1.0, 100, 100};
  Metrics c{1.0, 1.0, 100, 99};
  EXPECT_TRUE(dominates(c, a));
  EXPECT_FALSE(dominates(a, c));
}

}  // namespace
}  // namespace ddtr::energy
