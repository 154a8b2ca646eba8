// Abstract interface of the DDT library. All implementations expose the
// same record-sequence operations ("add a record, access a record or remove
// a record", paper §3.1) so the exploration engine can swap implementations
// without touching application code — exactly the instrumentation contract
// the methodology relies on.
//
// Access accounting: every underlying memory touch (pointer hop, chunk
// header read, record read/write, element move during reallocation) is
// reported to the attached MemoryProfile with its byte width. Allocation
// events report the allocated block size plus a fixed allocator header
// (kAllocatorOverhead). Node-allocating containers draw their nodes from a
// support::Pool arena, so footprint is charged per chunk (slack included,
// headers amortized). Fine-grained linked structures still pay a
// footprint premium through their per-node links: the paper measures a
// DLL needing 68.8% more footprint than the best combination (§4), and
// bench_fig4_route prints the all-DLL premium on the arena beside it.
//
// Keyed containers also keep a host-side key column: one 64-bit key per
// record, in logical order, outside the modeled node types. It is never
// charged. It only lets find_key settle a search without re-deriving the
// key of every visited record; the modeled cost of that search is charged
// separately, exactly as the layout's traversal would charge it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ddt/kinds.h"
#include "profiling/memory_profile.h"
#include "support/arena.h"
#include "support/function_ref.h"

namespace ddtr::ddt {

// ddtr-accounting-begin (container cost constants: any change must bump
// kDdtAccountingVersion in ddt/kinds.h)
// Heap-allocator bookkeeping bytes charged per allocation event.
inline constexpr std::size_t kAllocatorOverhead = support::kAllocatorOverhead;

// Machine pointer width used for access accounting.
inline constexpr std::size_t kPointerBytes = 8;

// CPU-cycle cost model for the containers' non-memory work. Pointer hops
// are serially dependent loads with an unpredictable branch (several
// cycles each); bulk element moves stream through the core at a fraction
// of a cycle per element. This asymmetry is what decouples execution time
// from memory energy — a combination can be fast but energy-hungry (bulk
// moves: many counted accesses, little CPU time) or frugal but slow
// (pointer chasing: few accesses, many stall cycles), producing the
// genuine time/energy Pareto fronts of the paper's Figures 3 and 4.
inline constexpr std::uint64_t kHopCpuOps = 3;        // per pointer hop
inline constexpr std::uint64_t kTouchCpuOps = 1;      // per indexed access
inline constexpr std::size_t kMoveElemsPerCpuOp = 2;  // streaming moves
inline constexpr std::uint64_t kKeyHashCpuOps = 4;    // per key derivation
// ddtr-accounting-end

inline constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

// A dynamically sized sequence of records of type T. Indices are logical
// positions (0-based); how a position maps onto memory touches is the whole
// point of the exploration. Records must be copyable; they are returned by
// value so every record access is counted exactly once.
template <typename T>
class Container {
 public:
  using value_type = T;
  // Visitor for sequential traversal: receives (index, record), returns
  // true to continue, false to stop early. Non-owning and two words wide —
  // it must be a lambda (or function) alive at the call site.
  using Visitor = support::function_ref<bool(std::size_t, const T&)>;
  // Derives the 64-bit lookup key of a record. Plain function pointer so
  // passing one through the factory stays trivially cheap; nullptr means
  // the slot is unkeyed and find_key is unavailable.
  using KeyFn = std::uint64_t (*)(const T&);

  explicit Container(prof::MemoryProfile& profile, KeyFn key = nullptr)
      : profile_(&profile), key_fn_(key) {}
  virtual ~Container() = default;

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  virtual DdtKind kind() const noexcept = 0;
  virtual std::size_t size() const noexcept = 0;
  bool empty() const noexcept { return size() == 0; }

  // Appends a record at the end.
  virtual void push_back(const T& value) = 0;

  // Inserts before position `index` (0 <= index <= size()).
  virtual void insert(std::size_t index, const T& value) = 0;

  // Reads the record at `index` (0 <= index < size()).
  virtual T get(std::size_t index) const = 0;

  // Overwrites the record at `index`.
  virtual void set(std::size_t index, const T& value) = 0;

  // Removes the record at `index`, shifting later records one position.
  virtual void erase(std::size_t index) = 0;

  // Removes all records and releases storage.
  virtual void clear() = 0;

  // Sequential traversal front-to-back; implementations traverse the way
  // their layout makes natural (array scan, pointer chase, chunk walk) and
  // leave their roving cache at the last visited position.
  virtual void for_each(Visitor visitor) const = 0;

  // Position of the first record whose key (per the slot's key function)
  // equals `key`, or npos. Requires a key function. The scan kinds search
  // the key column and charge what scan_find_key's traversal charges for
  // the records it would visit (kKeyHashCpuOps per record for the key it
  // re-derives); kOpenHash probes its index instead.
  virtual std::size_t find_key(std::uint64_t key) const = 0;

  // The reference for find_key's charges: the layout's natural traversal,
  // re-deriving each visited record's key. Same result, same counters and
  // same roving cursor as find_key on the scan kinds; only tests and
  // bench_ddt_micro call it.
  virtual std::size_t scan_find_key(std::uint64_t key) const {
    require_key_fn();
    std::size_t found = npos;
    for_each([&](std::size_t i, const T& v) {
      profile_->record_cpu_ops(kKeyHashCpuOps + kTouchCpuOps);
      if (key_fn_(v) == key) {
        found = i;
        return false;
      }
      return true;
    });
    return found;
  }

  // Index of the first record satisfying `pred`, or npos. Charged as the
  // traversal it performs.
  std::size_t find_if(support::function_ref<bool(const T&)> pred) const {
    std::size_t found = npos;
    for_each([&](std::size_t i, const T& v) {
      if (pred(v)) {
        found = i;
        return false;
      }
      return true;
    });
    return found;
  }

  prof::MemoryProfile& profile() const noexcept { return *profile_; }
  KeyFn key_fn() const noexcept { return key_fn_; }

 protected:
  void require_key_fn() const {
    if (key_fn_ == nullptr) {
      throw std::logic_error(
          "find_key requires a key function (see make_container)");
    }
  }

  // Accounting helpers shared by the implementations.
  void count_read(std::size_t bytes, std::size_t n = 1) const {
    profile_->record_read(bytes, n);
  }
  void count_write(std::size_t bytes, std::size_t n = 1) const {
    profile_->record_write(bytes, n);
  }
  void count_alloc(std::size_t bytes) const {
    profile_->on_alloc(bytes + kAllocatorOverhead);
    profile_->record_cpu_ops(support::kHeapAllocCpuOps);
  }
  void count_free(std::size_t bytes) const {
    profile_->on_free(bytes + kAllocatorOverhead);
    profile_->record_cpu_ops(support::kHeapFreeCpuOps);
  }
  void count_hops(std::size_t n) const {
    profile_->record_cpu_ops(kHopCpuOps * n);
  }
  void count_touch(std::size_t n = 1) const {
    profile_->record_cpu_ops(kTouchCpuOps * n);
  }
  void count_moves(std::size_t elements) const {
    profile_->record_cpu_ops(elements / kMoveElemsPerCpuOp + 1);
  }
  std::uint64_t key_of(const T& value) const { return key_fn_(value); }

  // The one growth policy of the contiguous kinds (AR, HASH's records,
  // AR(P)'s slot array): a buffer of `width`-byte slots, `live` of the
  // `reserved` charged ones in use. When full it grows to 4 slots, then
  // doubles: the new buffer is allocated, every live slot copied, then the
  // old buffer freed — old and new coexist during the copy, so the peak
  // footprint charges both (the classic dynamic-array penalty in embedded
  // memory budgets). Returns the slot count charged from now on.
  std::size_t grow_for_one_more(std::size_t live, std::size_t reserved,
                                std::size_t width) const {
    if (live < reserved) return reserved;
    const std::size_t grown = reserved == 0 ? 4 : reserved * 2;
    count_alloc(grown * width);
    if (live != 0) {
      count_read(width, live);
      count_write(width, live);
      count_moves(live);
    }
    if (reserved != 0) count_free(reserved * width);
    return grown;
  }

  // Key column upkeep, one call per positional write. Host-only: nothing
  // is charged, and an unkeyed container pays the null check only.
  void column_push_back(const T& value) {
    if (key_fn_ != nullptr) keys_.push_back(key_fn_(value));
  }
  void column_insert(std::size_t index, const T& value) {
    if (key_fn_ != nullptr) {
      keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(index),
                   key_fn_(value));
    }
  }
  void column_set(std::size_t index, const T& value) {
    if (key_fn_ != nullptr) keys_[index] = key_fn_(value);
  }
  void column_erase(std::size_t index) {
    if (key_fn_ != nullptr) {
      keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(index));
    }
  }
  void column_clear() {
    keys_.clear();
    keys_.shrink_to_fit();
  }

  // The stored key of the record at `index` (keyed containers only).
  std::uint64_t column_key(std::size_t index) const { return keys_[index]; }

  // Position of the first stored key equal to `key`, or npos. Uncharged:
  // the caller charges the search its layout models.
  std::size_t column_find(std::uint64_t key) const {
    require_key_fn();
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    return it == keys_.end() ? npos
                             : static_cast<std::size_t>(it - keys_.begin());
  }

  // Records a front-to-back scan visits to settle a search whose first
  // match is `found`: found + 1 on a hit, every record on a miss.
  std::size_t scan_visits(std::size_t found) const {
    return found == npos ? size() : found + 1;
  }

  // The key compare a scan pays per visited record on top of the
  // traversal: re-deriving the record's key plus the compare itself.
  void count_key_compares(std::size_t visits) const {
    profile_->record_cpu_ops((kKeyHashCpuOps + kTouchCpuOps) * visits);
  }

 private:
  prof::MemoryProfile* profile_;  // non-owning, never null
  KeyFn key_fn_;
  std::vector<std::uint64_t> keys_;  // key column, logical order
};

}  // namespace ddtr::ddt
