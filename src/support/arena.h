// Typed arena/pool allocator for the node-allocating DDTs. Objects are
// carved out of geometrically growing chunks (bump allocation) and recycled
// through an intrusive free list, so steady-state insert/remove churn costs
// a pointer swap instead of a malloc round-trip.
//
// The pool charges the MemoryProfile per *chunk* (payload plus one
// allocator header), which makes footprint reflect allocator reality:
// chunk slack is charged, per-node headers are amortized away. That
// charge is the pool's only report: support sits below obs in the layer
// lattice (tools/lint/layers.lock), so the allocator carries no telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "profiling/memory_profile.h"

namespace ddtr::support {

// Heap-allocator bookkeeping bytes charged per allocation event: one per
// pool chunk here, one per Container::count_alloc block (array storage,
// AR(P) records). ddt::kAllocatorOverhead aliases this value.
// ddtr-accounting-begin (allocator cost constants + chunk geometry)
inline constexpr std::size_t kAllocatorOverhead = 16;

// CPU-op charges of the allocation paths. The heap values are what
// Container::count_alloc/count_free charge per block (ddt/container.h);
// arena paths are cheaper because a bump or free-list pop is a couple of
// instructions.
inline constexpr std::uint64_t kHeapAllocCpuOps = 8;
inline constexpr std::uint64_t kHeapFreeCpuOps = 4;
inline constexpr std::uint64_t kArenaChunkCpuOps = 8;    // new chunk
inline constexpr std::uint64_t kArenaCreateCpuOps = 2;   // bump / pop
inline constexpr std::uint64_t kArenaDestroyCpuOps = 1;  // free-list push
inline constexpr std::uint64_t kArenaReleaseCpuOps = 4;  // per chunk

// Chunk growth schedule: first chunk holds kFirstChunkObjects slots, each
// subsequent chunk doubles, capped so a chunk's payload stays within
// kMaxChunkBytes (one slot minimum for oversized objects).
inline constexpr std::size_t kFirstChunkObjects = 8;
inline constexpr std::size_t kMaxChunkBytes = 8192;
// ddtr-accounting-end

std::size_t next_chunk_objects(std::size_t current_objects,
                               std::size_t slot_bytes) noexcept;

// Observable pool state, for tests and for surfacing allocator reality
// through reports.
struct PoolStats {
  std::uint64_t created = 0;    // total create() calls
  std::uint64_t destroyed = 0;  // total destroy() calls
  std::uint64_t reused = 0;     // creates served from the free list
  std::size_t live_objects = 0;
  std::size_t peak_objects = 0;
  std::size_t chunk_count = 0;     // chunks currently reserved
  std::size_t reserved_bytes = 0;  // payload bytes currently reserved
};

// Fixed-size object pool for T. Not thread-safe (each simulation owns its
// containers exclusively, like MemoryProfile itself).
template <typename T>
class Pool {
 public:
  explicit Pool(prof::MemoryProfile& profile) : profile_(&profile) {}

  ~Pool() { release(); }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  const PoolStats& stats() const noexcept { return stats_; }

  template <typename... Args>
  T* create(Args&&... args) {
    Slot* slot = nullptr;
    if (free_list_ != nullptr) {
      slot = free_list_;
      free_list_ = slot->next_free;
      ++stats_.reused;
    } else {
      if (bump_ == bump_end_) grow();
      slot = bump_++;
    }
    profile_->record_cpu_ops(kArenaCreateCpuOps);
    T* object = ::new (static_cast<void*>(slot->storage))
        T(std::forward<Args>(args)...);
    ++stats_.created;
    ++stats_.live_objects;
    if (stats_.live_objects > stats_.peak_objects) {
      stats_.peak_objects = stats_.live_objects;
    }
    return object;
  }

  void destroy(T* object) noexcept {
    object->~T();
    Slot* slot = reinterpret_cast<Slot*>(object);
    slot->next_free = free_list_;
    free_list_ = slot;
    profile_->record_cpu_ops(kArenaDestroyCpuOps);
    ++stats_.destroyed;
    --stats_.live_objects;
  }

  // Returns every chunk to the system. Callers must have destroyed all
  // live objects first; the free list and bump region are reset, so
  // previously handed-out pointers become invalid.
  void release() noexcept {
    for (const Chunk& chunk : chunks_) {
      profile_->on_free(chunk.objects * sizeof(Slot) + kAllocatorOverhead);
      profile_->record_cpu_ops(kArenaReleaseCpuOps);
    }
    chunks_.clear();
    free_list_ = nullptr;
    bump_ = bump_end_ = nullptr;
    stats_.chunk_count = 0;
    stats_.reserved_bytes = 0;
  }

 private:
  union Slot {
    Slot() noexcept {}   // NOLINT — storage is initialized by placement-new
    ~Slot() noexcept {}  // NOLINT — destruction handled by destroy()
    Slot* next_free;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  struct Chunk {
    std::unique_ptr<Slot[]> slots;
    std::size_t objects = 0;
  };

  void grow() {
    const std::size_t last =
        chunks_.empty() ? 0 : chunks_.back().objects;
    const std::size_t objects = next_chunk_objects(last, sizeof(Slot));
    Chunk chunk;
    chunk.slots = std::make_unique<Slot[]>(objects);
    chunk.objects = objects;
    bump_ = chunk.slots.get();
    bump_end_ = bump_ + objects;
    chunks_.push_back(std::move(chunk));
    ++stats_.chunk_count;
    stats_.reserved_bytes += objects * sizeof(Slot);
    profile_->on_alloc(objects * sizeof(Slot) + kAllocatorOverhead);
    profile_->record_cpu_ops(kArenaChunkCpuOps);
  }

  prof::MemoryProfile* profile_;  // non-owning, never null
  std::vector<Chunk> chunks_;
  Slot* free_list_ = nullptr;
  Slot* bump_ = nullptr;
  Slot* bump_end_ = nullptr;
  PoolStats stats_;
};

}  // namespace ddtr::support

