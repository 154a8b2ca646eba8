// The arena pool is the allocation substrate under every node-allocating
// DDT, so its invariants (free-list reuse, bounded chunk growth, honest
// MemoryProfile charging) underpin all footprint numbers downstream.
#include <gtest/gtest.h>

#include <vector>

#include "ddt/factory.h"
#include "support/arena.h"

namespace ddtr {
namespace {

struct Rec {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

TEST(Arena, FreeListReusesDestroyedSlots) {
  prof::MemoryProfile profile;
  support::Pool<Rec> pool(profile);
  Rec* first = pool.create();
  pool.destroy(first);
  Rec* second = pool.create();
  // The freed slot is recycled: same storage, no new chunk.
  EXPECT_EQ(static_cast<void*>(first), static_cast<void*>(second));
  const support::PoolStats& stats = pool.stats();
  EXPECT_EQ(stats.created, 2u);
  EXPECT_EQ(stats.destroyed, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.chunk_count, 1u);
  // Reuse performs no allocator call: still exactly one chunk allocation.
  EXPECT_EQ(profile.counters().allocations, 1u);
  pool.destroy(second);
}

TEST(Arena, ChunkGrowthDoublesUpToByteCap) {
  // Schedule: 8, 16, 32, ... doubling until a chunk's payload would exceed
  // kMaxChunkBytes, then pinned at the cap.
  const std::size_t slot = sizeof(Rec);  // 16 B — no free-list enlargement
  const std::size_t cap = support::kMaxChunkBytes / slot;
  EXPECT_EQ(support::next_chunk_objects(0, slot),
            support::kFirstChunkObjects);
  EXPECT_EQ(support::next_chunk_objects(8, slot), 16u);
  EXPECT_EQ(support::next_chunk_objects(256, slot), cap);
  EXPECT_EQ(support::next_chunk_objects(cap, slot), cap);
  // Oversized objects still get one slot per chunk.
  EXPECT_EQ(support::next_chunk_objects(0, support::kMaxChunkBytes * 2), 1u);

  prof::MemoryProfile profile;
  support::Pool<Rec> pool(profile);
  std::vector<Rec*> objects;
  for (std::size_t i = 0; i < support::kFirstChunkObjects; ++i) {
    objects.push_back(pool.create());
  }
  EXPECT_EQ(pool.stats().chunk_count, 1u);
  objects.push_back(pool.create());  // 9th object forces the second chunk
  EXPECT_EQ(pool.stats().chunk_count, 2u);
  EXPECT_EQ(pool.stats().reserved_bytes, (8u + 16u) * slot);
  for (Rec* object : objects) pool.destroy(object);
}

TEST(Arena, PoolStatsAgreeWithMemoryProfileTotals) {
  prof::MemoryProfile profile;
  {
    support::Pool<Rec> pool(profile);
    std::vector<Rec*> objects;
    for (std::size_t i = 0; i < 100; ++i) objects.push_back(pool.create());
    // Profile live bytes are exactly the reserved payload plus one
    // allocator header per chunk.
    EXPECT_EQ(profile.counters().live_bytes,
              pool.stats().reserved_bytes +
                  pool.stats().chunk_count * support::kAllocatorOverhead);
    EXPECT_EQ(profile.counters().allocations, pool.stats().chunk_count);
    EXPECT_EQ(pool.stats().peak_objects, 100u);
    for (Rec* object : objects) pool.destroy(object);
    // destroy() recycles without releasing: reservation is unchanged.
    EXPECT_GT(profile.counters().live_bytes, 0u);
    const std::size_t chunks = pool.stats().chunk_count;
    pool.release();
    EXPECT_EQ(profile.counters().live_bytes, 0u);
    EXPECT_EQ(profile.counters().deallocations, chunks);
  }
  EXPECT_EQ(profile.counters().allocations,
            profile.counters().deallocations);
}

TEST(Arena, ListContainerArenaBalancesOnClear) {
  // End-to-end: an arena-backed SLL allocates a handful of chunks for 64
  // nodes, serves churn from the free list, and clear() returns the whole
  // reservation so allocation events balance.
  prof::MemoryProfile profile;
  auto c = ddt::make_container<Rec>(ddt::DdtKind::kSll, profile);
  for (std::size_t i = 0; i < 64; ++i) c->push_back({i, i});
  EXPECT_LE(profile.counters().allocations, 5u);  // chunks, not nodes
  for (std::size_t i = 0; i < 16; ++i) c->erase(0);
  for (std::size_t i = 0; i < 8; ++i) c->push_back({i, i});
  EXPECT_LE(profile.counters().allocations, 5u);  // churn hits the free list
  c->clear();
  EXPECT_EQ(profile.counters().live_bytes, 0u);
  EXPECT_EQ(profile.counters().allocations,
            profile.counters().deallocations);
}

}  // namespace
}  // namespace ddtr
