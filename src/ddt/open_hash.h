// HASH — dense record array plus an open-addressing key index over
// arena-backed slot chunks. The record storage is exactly an AR (contiguous
// doubling array: O(1) positional access, O(n) middle edits), so the kind
// honors the positional Container contract bit-for-bit; what it adds is an
// O(1) find_key: linear probing over 16-byte {key, position} slots kept at
// load factor <= 1/2, with probe starts spread by support::mix64.
//
// The index is lazy and self-invalidating: structural edits that shift
// positions (middle insert/erase) or rewrite keys just mark it dirty, and
// the next find_key rebuilds it in one ascending pass (keeping the lowest
// position per duplicated key, matching the scan kinds' find_key). Keys
// come from the host-side key column, charged as derivations. Appends and
// same-key overwrites — the hot path of the connection/flow tables this
// kind exists for — maintain the index incrementally. Unkeyed instances
// degrade to a plain AR and never build an index (find_key throws, as for
// every unkeyed container).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "ddt/container.h"
#include "ddt/kinds.h"
#include "support/arena.h"
#include "support/fnv_hash.h"

namespace ddtr::ddt {

template <typename T>
class OpenHashContainer final : public Container<T> {
 public:
  explicit OpenHashContainer(
      prof::MemoryProfile& profile,
      typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key), pool_(profile) {}

  // pool_'s destructor releases the index chunks.
  ~OpenHashContainer() override { release_data(); }

  DdtKind kind() const noexcept override { return DdtKind::kOpenHash; }
  std::size_t size() const noexcept override { return data_.size(); }

  void push_back(const T& value) override {
    reserve_for_one_more();
    data_.push_back(value);
    this->column_push_back(value);
    this->count_write(sizeof(T));
    this->count_touch();
    if (index_built() && !dirty_) {
      if (data_.size() * 2 > slot_capacity()) {
        dirty_ = true;  // over the load-factor bound: rebuild on next find
      } else {
        index_insert_if_absent(hashed_key(data_.size() - 1),
                               data_.size() - 1);
      }
    }
  }

  void insert(std::size_t index, const T& value) override {
    assert(index <= data_.size());
    if (index == data_.size()) {
      push_back(value);
      return;
    }
    reserve_for_one_more();
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

  void set(std::size_t index, const T& value) override {
    assert(index < data_.size());
    // Same-key overwrites (statistics updates on a keyed record — the hot
    // path) keep the index valid; a key rewrite invalidates it.
    const bool tracked = index_built() && !dirty_;
    const std::uint64_t old_key = tracked ? hashed_key(index) : 0;
    data_[index] = value;
    this->column_set(index, value);
    if (tracked) {
      this->count_read(sizeof(T));
      if (hashed_key(index) != old_key) dirty_ = true;
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
    release_data();
    data_.clear();
    data_.shrink_to_fit();
    this->column_clear();
    reserved_ = 0;
    chunks_.clear();
    pool_.release();
    dirty_ = false;
  }

  void for_each(typename Container<T>::Visitor visitor) const override {
    for (std::size_t i = 0; i < data_.size(); ++i) {
      this->count_read(sizeof(T));
      this->count_touch();
      if (!visitor(i, data_[i])) break;
    }
  }

  std::size_t find_key(std::uint64_t key) const override {
    this->require_key_fn();
    if (data_.empty()) return npos;
    if (!index_built() || dirty_) rebuild_index();
    this->profile().record_cpu_ops(kKeyHashCpuOps);
    this->count_read(kPointerBytes);  // chunk directory indirection
    this->count_hops(1);
    const Slot& slot = probe(key);
    return slot.state == kFull ? static_cast<std::size_t>(slot.pos) : npos;
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

  bool index_built() const noexcept { return !chunks_.empty(); }
  std::size_t slot_capacity() const noexcept {
    return chunks_.size() * kSlotsPerChunk;
  }

  void mark_dirty() {
    if (index_built()) dirty_ = true;
  }

  // The key of record `index`, charged as the derivation the model
  // assumes; the host reads it from the key column.
  std::uint64_t hashed_key(std::size_t index) const {
    this->profile().record_cpu_ops(kKeyHashCpuOps);
    return this->column_key(index);
  }

  Slot& slot_at(std::size_t idx) const {
    return chunks_[idx / kSlotsPerChunk]->slots[idx % kSlotsPerChunk];
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
    while (chunks_.size() > needed_chunks) {
      pool_.destroy(chunks_.back());  // back to the pool free list
      chunks_.pop_back();
    }
    while (chunks_.size() < needed_chunks) {
      chunks_.push_back(pool_.create());
    }
    for (SlotChunk* chunk : chunks_) {
      *chunk = SlotChunk{};
      this->count_write(sizeof(SlotChunk));
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
      this->count_read(sizeof(T));
      index_insert_if_absent(hashed_key(i), i);
    }
    dirty_ = false;
  }

  // Record storage: identical growth accounting to ArrayContainer.
  void reserve_for_one_more() {
    if (data_.size() < reserved_) return;
    const std::size_t new_capacity = reserved_ == 0 ? 4 : reserved_ * 2;
    this->count_alloc(new_capacity * sizeof(T));
    if (!data_.empty()) {
      this->count_read(sizeof(T), data_.size());
      this->count_write(sizeof(T), data_.size());
      this->count_moves(data_.size());
    }
    if (reserved_ != 0) this->count_free(reserved_ * sizeof(T));
    data_.reserve(new_capacity);
    reserved_ = new_capacity;
  }

  void release_data() {
    if (reserved_ != 0) this->count_free(reserved_ * sizeof(T));
    reserved_ = 0;
  }

  std::vector<T> data_;
  std::size_t reserved_ = 0;  // capacity charged to the profile
  mutable support::Pool<SlotChunk> pool_;
  mutable std::vector<SlotChunk*> chunks_;  // index directory
  mutable bool dirty_ = false;
};

}  // namespace ddtr::ddt

