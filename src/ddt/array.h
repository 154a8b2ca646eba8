// AR / HASH — contiguous resizable array of records. Cheapest random
// access (one record-sized touch), most expensive middle insertion/removal
// (element moves), footprint equal to the reserved capacity (doubling
// growth), no per-record pointer overhead.
//
// HASH is the Indexed instantiation: the same record storage, so it honors
// the positional Container contract bit-for-bit, plus an O(1) find_key:
// linear probing over 16-byte {key, position} slots in arena-backed slot
// chunks, kept at load factor <= 1/2, with probe starts spread by
// support::mix64. The index is lazy and self-invalidating: structural
// edits that shift positions (middle insert/erase) or rewrite keys just
// mark it dirty, and the next find_key rebuilds it in one ascending pass
// (keeping the lowest position per duplicated key, matching the scan
// kinds' find_key). Keys come from the host-side key column, charged as
// derivations. Appends and same-key overwrites — the hot path of the
// connection/flow tables this kind exists for — maintain the index
// incrementally. Unkeyed instances never build an index (find_key throws,
// as for every unkeyed container). Plain AR holds an empty index member
// and compiles none of it.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "ddt/container.h"
#include "ddt/kinds.h"
#include "support/arena.h"
#include "support/fnv_hash.h"

namespace ddtr::ddt {

template <typename T, bool Indexed = false>
class ArrayContainer final : public Container<T> {
 public:
  explicit ArrayContainer(prof::MemoryProfile& profile,
                          typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key), index_(profile) {}

  // The index's pool releases its chunks after the records are freed.
  ~ArrayContainer() override { release(); }

  DdtKind kind() const noexcept override {
    return Indexed ? DdtKind::kOpenHash : DdtKind::kArray;
  }
  std::size_t size() const noexcept override { return data_.size(); }

  void push_back(const T& value) override {
    reserve_for_one_more();
    data_.push_back(value);
    this->column_push_back(value);
    this->count_write(sizeof(T));
    this->count_touch();
    if constexpr (Indexed) {
      if (index_current()) {
        if (data_.size() * 2 > slot_capacity()) {
          index_.dirty = true;  // over the load-factor bound: rebuild
        } else {
          index_insert_if_absent(hashed_key(data_.size() - 1),
                                 data_.size() - 1);
        }
      }
    }
  }

  // An insert at the end is an append: it charges what push_back charges
  // and keeps HASH's index current.
  void insert(std::size_t index, const T& value) override {
    assert(index <= data_.size());
    if (index == data_.size()) {
      push_back(value);
      return;
    }
    reserve_for_one_more();
    // Shifting the tail: each moved record is one read plus one write,
    // streamed by the core (cheap cycles, expensive accesses).
    const std::size_t moved = data_.size() - index;
    data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(index), value);
    this->column_insert(index, value);
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved + 1);
    this->count_moves(moved);
    mark_dirty();  // later positions shifted
  }

  T get(std::size_t index) const override {
    assert(index < data_.size());
    this->count_read(sizeof(T));
    this->count_touch();
    return data_[index];
  }

  // HASH: a same-key overwrite (a statistics update on a keyed record, the
  // hot path) keeps the index valid; a key rewrite invalidates it.
  void set(std::size_t index, const T& value) override {
    assert(index < data_.size());
    const bool tracked = index_current();
    const std::uint64_t old_key = tracked ? hashed_key(index) : 0;
    data_[index] = value;
    this->column_set(index, value);
    if (tracked) {
      this->count_read(sizeof(T));
      if (hashed_key(index) != old_key) mark_dirty();
    }
    this->count_write(sizeof(T));
    this->count_touch();
  }

  void erase(std::size_t index) override {
    assert(index < data_.size());
    const std::size_t moved = data_.size() - index - 1;
    data_.erase(data_.begin() + static_cast<std::ptrdiff_t>(index));
    this->column_erase(index);
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    mark_dirty();
  }

  void clear() override {
    release();
    data_.clear();
    data_.shrink_to_fit();
    this->column_clear();
    if constexpr (Indexed) {
      index_.chunks.clear();
      index_.pool.release();
      index_.dirty = false;
    }
  }

  void for_each(typename Container<T>::Visitor visitor) const override {
    for (std::size_t i = 0; i < data_.size(); ++i) {
      this->count_read(sizeof(T));
      this->count_touch();
      if (!visitor(i, data_[i])) break;
    }
  }

  // AR: a column search charged as for_each's record reads up to the
  // match. HASH: a probe of the index, rebuilt first if stale.
  std::size_t find_key(std::uint64_t key) const override {
    if constexpr (Indexed) {
      this->require_key_fn();
      if (data_.empty()) return npos;
      if (!index_current()) rebuild_index();
      this->profile().record_cpu_ops(kKeyHashCpuOps);
      this->count_read(kPointerBytes);  // chunk directory indirection
      this->count_hops(1);
      const Slot& slot = probe(key);
      return slot.state == kFull ? static_cast<std::size_t>(slot.pos) : npos;
    } else {
      const std::size_t found = this->column_find(key);
      const std::size_t visits = this->scan_visits(found);
      this->count_read(sizeof(T), visits);
      this->count_touch(visits);
      this->count_key_compares(visits);
      return found;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kFull = 1;
  static constexpr std::size_t kSlotsPerChunk = 64;
  static constexpr std::size_t kMinSlots = 128;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t pos = 0;
    std::uint32_t state = kEmpty;
  };
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

  struct SlotChunk {
    Slot slots[kSlotsPerChunk];
  };

  // HASH's key index: slot chunks from the arena, the chunk directory, and
  // whether the index lags the records.
  struct KeyIndex {
    explicit KeyIndex(prof::MemoryProfile& profile) : pool(profile) {}
    support::Pool<SlotChunk> pool;
    std::vector<SlotChunk*> chunks;
    bool dirty = false;
  };
  struct NoIndex {
    explicit NoIndex(prof::MemoryProfile&) {}
  };

  void reserve_for_one_more() {
    reserved_ = this->grow_for_one_more(data_.size(), reserved_, sizeof(T));
    data_.reserve(reserved_);
  }

  void release() {
    if (reserved_ != 0) this->count_free(reserved_ * sizeof(T));
    reserved_ = 0;
  }

  // Whether HASH's index is built and matches the records (never for AR).
  bool index_current() const noexcept {
    if constexpr (Indexed) {
      return !index_.chunks.empty() && !index_.dirty;
    } else {
      return false;
    }
  }

  void mark_dirty() {
    if constexpr (Indexed) {
      if (!index_.chunks.empty()) index_.dirty = true;
    }
  }

  std::size_t slot_capacity() const noexcept {
    return index_.chunks.size() * kSlotsPerChunk;
  }

  // The key of record `index`, charged as the derivation the model
  // assumes; the host reads it from the key column.
  std::uint64_t hashed_key(std::size_t index) const {
    this->profile().record_cpu_ops(kKeyHashCpuOps);
    return this->column_key(index);
  }

  Slot& slot_at(std::size_t idx) const {
    return index_.chunks[idx / kSlotsPerChunk]->slots[idx % kSlotsPerChunk];
  }

  // Probes from mix64(key): returns the slot holding `key` or the first
  // empty slot. Terminates because load factor is kept <= 1/2.
  Slot& probe(std::uint64_t key) const {
    const std::size_t mask = slot_capacity() - 1;
    std::size_t idx = support::mix64(key) & mask;
    for (;;) {
      Slot& slot = slot_at(idx);
      this->count_read(kSlotBytes);
      this->count_touch();
      if (slot.state == kEmpty || slot.key == key) return slot;
      idx = (idx + 1) & mask;
    }
  }

  void index_insert_if_absent(std::uint64_t key, std::size_t pos) const {
    this->count_read(kPointerBytes);
    this->count_hops(1);
    Slot& slot = probe(key);
    if (slot.state == kFull) return;  // earlier position wins (scan order)
    slot.key = key;
    slot.pos = static_cast<std::uint32_t>(pos);
    slot.state = kFull;
    this->count_write(kSlotBytes);
  }

  // One ascending pass over the records: capacity is sized to twice the
  // record count (power of two, >= kMinSlots), every chunk is zeroed (one
  // chunk-wide write each), then each record pays a record read, a key
  // derivation (read from the key column) and its probe traffic.
  void rebuild_index() const {
    std::size_t needed = kMinSlots;
    while (needed < data_.size() * 2) needed *= 2;
    const std::size_t needed_chunks = needed / kSlotsPerChunk;
    while (index_.chunks.size() > needed_chunks) {
      index_.pool.destroy(index_.chunks.back());  // back to the free list
      index_.chunks.pop_back();
    }
    while (index_.chunks.size() < needed_chunks) {
      index_.chunks.push_back(index_.pool.create());
    }
    for (SlotChunk* chunk : index_.chunks) {
      *chunk = SlotChunk{};
      this->count_write(sizeof(SlotChunk));
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
      this->count_read(sizeof(T));
      index_insert_if_absent(hashed_key(i), i);
    }
    index_.dirty = false;
  }

  std::vector<T> data_;
  std::size_t reserved_ = 0;  // capacity we have charged to the profile
  [[no_unique_address]] mutable
      std::conditional_t<Indexed, KeyIndex, NoIndex> index_;
};

}  // namespace ddtr::ddt
