// AR(P) — resizable array of pointers to individually heap-allocated
// records. Random access costs a pointer read plus a record read; middle
// insertion/removal moves only pointers (cheap for large records); each
// record pays its own allocation header, so footprint sits between AR and
// the linked lists.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "ddt/container.h"
#include "ddt/kinds.h"

namespace ddtr::ddt {

template <typename T>
class ArrayOfPointersContainer final : public Container<T> {
 public:
  explicit ArrayOfPointersContainer(
      prof::MemoryProfile& profile,
      typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key) {}

  ~ArrayOfPointersContainer() override { release_all(); }

  DdtKind kind() const noexcept override { return DdtKind::kArrayOfPointers; }
  std::size_t size() const noexcept override { return slots_.size(); }

  void push_back(const T& value) override {
    reserve_for_one_more();
    slots_.push_back(make_record(value));
    this->column_push_back(value);
    this->count_write(kPointerBytes);  // store the pointer
    this->count_touch();
  }

  void insert(std::size_t index, const T& value) override {
    assert(index <= slots_.size());
    reserve_for_one_more();
    const std::size_t moved = slots_.size() - index;
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(index),
                  make_record(value));
    this->column_insert(index, value);
    this->count_read(kPointerBytes, moved);
    this->count_write(kPointerBytes, moved + 1);
    this->count_moves(moved);
  }

  T get(std::size_t index) const override {
    assert(index < slots_.size());
    this->count_read(kPointerBytes);
    this->count_read(sizeof(T));
    this->count_hops(1);  // indirection through the slot pointer
    return *slots_[index];
  }

  void set(std::size_t index, const T& value) override {
    assert(index < slots_.size());
    this->count_read(kPointerBytes);
    *slots_[index] = value;
    this->column_set(index, value);
    this->count_write(sizeof(T));
    this->count_hops(1);
  }

  void erase(std::size_t index) override {
    assert(index < slots_.size());
    this->count_free(sizeof(T));
    const std::size_t moved = slots_.size() - index - 1;
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(index));
    this->column_erase(index);
    this->count_read(kPointerBytes, moved);
    this->count_write(kPointerBytes, moved);
    this->count_moves(moved);
  }

  void clear() override {
    release_all();
    slots_.clear();
    slots_.shrink_to_fit();
    this->column_clear();
    reserved_ = 0;
  }

  void for_each(typename Container<T>::Visitor visitor) const override {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      this->count_read(kPointerBytes);
      this->count_read(sizeof(T));
      this->count_hops(1);
      if (!visitor(i, *slots_[i])) break;
    }
  }

  // A column search charged as for_each's slot and record reads (one
  // indirection each) up to the match.
  std::size_t find_key(std::uint64_t key) const override {
    const std::size_t found = this->column_find(key);
    const std::size_t visits = this->scan_visits(found);
    this->count_read(kPointerBytes, visits);
    this->count_read(sizeof(T), visits);
    this->count_hops(visits);
    this->count_key_compares(visits);
    return found;
  }

 private:
  std::unique_ptr<T> make_record(const T& value) {
    this->count_alloc(sizeof(T));
    this->count_write(sizeof(T));
    return std::make_unique<T>(value);
  }

  // The slot array grows as AR's records do, a pointer per slot: far
  // smaller than the records it points to.
  void reserve_for_one_more() {
    reserved_ =
        this->grow_for_one_more(slots_.size(), reserved_, kPointerBytes);
    slots_.reserve(reserved_);
  }

  void release_all() {
    for (auto& slot : slots_) {
      if (slot) this->count_free(sizeof(T));
      slot.reset();
    }
    if (reserved_ != 0) this->count_free(reserved_ * kPointerBytes);
  }

  std::vector<std::unique_ptr<T>> slots_;
  std::size_t reserved_ = 0;
};

}  // namespace ddtr::ddt

