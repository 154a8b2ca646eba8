// MemoryProfile bookkeeping tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "profiling/memory_profile.h"

namespace ddtr::prof {
namespace {

TEST(MemoryProfile, ReadsAndWritesAccumulate) {
  MemoryProfile p;
  p.record_read(8, 3);
  p.record_write(16, 2);
  EXPECT_EQ(p.counters().reads, 3u);
  EXPECT_EQ(p.counters().writes, 2u);
  EXPECT_EQ(p.counters().bytes_read, 24u);
  EXPECT_EQ(p.counters().bytes_written, 32u);
  EXPECT_EQ(p.counters().accesses(), 5u);
}

TEST(MemoryProfile, PeakTracksHighWaterMark) {
  MemoryProfile p;
  p.on_alloc(100);
  p.on_alloc(200);
  p.on_free(150);
  p.on_alloc(50);
  EXPECT_EQ(p.counters().live_bytes, 200u);
  EXPECT_EQ(p.counters().peak_bytes, 300u);
}

TEST(MemoryProfile, FreeClampsAtZero) {
  MemoryProfile p;
  p.on_alloc(10);
  p.on_free(100);  // defensive clamp, not an underflow
  EXPECT_EQ(p.counters().live_bytes, 0u);
}

TEST(MemoryProfile, CpuOpsAccumulate) {
  MemoryProfile p;
  p.record_cpu_ops(5);
  p.record_cpu_ops(7);
  EXPECT_EQ(p.counters().cpu_ops, 12u);
}

TEST(MemoryProfile, ResetClearsEverything) {
  MemoryProfile p("x");
  p.record_read(8);
  p.on_alloc(64);
  p.reset();
  EXPECT_EQ(p.counters().reads, 0u);
  EXPECT_EQ(p.counters().live_bytes, 0u);
  EXPECT_EQ(p.counters().peak_bytes, 0u);
  EXPECT_EQ(p.name(), "x");
}

TEST(ProfileCounters, SumCombinesDisjointMemories) {
  ProfileCounters a;
  a.reads = 10;
  a.peak_bytes = 100;
  a.cpu_ops = 5;
  ProfileCounters b;
  b.reads = 3;
  b.writes = 4;
  b.peak_bytes = 50;
  a += b;
  EXPECT_EQ(a.reads, 13u);
  EXPECT_EQ(a.writes, 4u);
  // Coexisting structures: footprints add.
  EXPECT_EQ(a.peak_bytes, 150u);
  EXPECT_EQ(a.cpu_ops, 5u);
}

// An access-only block: what a weighted kernel runs once and repeats.
void charge_block(MemoryProfile& p) {
  p.record_read(8, 3);
  p.record_write(16, 2);
  p.record_read(4);
  p.record_cpu_ops(5);
}

TEST(MemoryProfile, RepeatSinceEqualsRunningTheBlockAgain) {
  for (const std::uint64_t extra : {0u, 1u, 6u}) {
    SCOPED_TRACE("extra " + std::to_string(extra));
    MemoryProfile repeated;
    MemoryProfile looped;
    for (MemoryProfile* p : {&repeated, &looped}) {
      p->on_alloc(64);  // charges before the block stay as they are
      p->record_read(2, 7);
      p->record_cpu_ops(3);
    }
    const ProfileCounters before = repeated.counters();
    charge_block(repeated);
    repeated.repeat_since(before, extra);
    for (std::uint64_t n = 0; n <= extra; ++n) charge_block(looped);
    EXPECT_EQ(repeated.counters(), looped.counters());
  }
}

TEST(MemoryProfile, RepeatSinceRejectsABlockThatAllocatesOrFrees) {
  MemoryProfile p;
  p.on_alloc(32);
  ProfileCounters before = p.counters();
  p.record_read(8);
  p.on_alloc(16);
  ProfileCounters after = p.counters();
  EXPECT_THROW(p.repeat_since(before, 2), std::logic_error);
  EXPECT_EQ(p.counters(), after);  // nothing charged on refusal

  before = p.counters();
  p.record_write(8);
  p.on_free(16);
  after = p.counters();
  EXPECT_THROW(p.repeat_since(before, 1), std::logic_error);
  EXPECT_EQ(p.counters(), after);
}

}  // namespace
}  // namespace ddtr::prof
