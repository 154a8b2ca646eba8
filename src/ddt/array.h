// AR — contiguous resizable array of records. Cheapest random access (one
// record-sized touch), most expensive middle insertion/removal (element
// moves), footprint equal to the reserved capacity (doubling growth), no
// per-record pointer overhead.
#pragma once

#include <cassert>
#include <vector>

#include "ddt/container.h"
#include "ddt/kinds.h"

namespace ddtr::ddt {

template <typename T>
class ArrayContainer final : public Container<T> {
 public:
  explicit ArrayContainer(prof::MemoryProfile& profile,
                          typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key) {}

  ~ArrayContainer() override { release(); }

  DdtKind kind() const noexcept override { return DdtKind::kArray; }
  std::size_t size() const noexcept override { return data_.size(); }

  void push_back(const T& value) override {
    reserve_for_one_more();
    data_.push_back(value);
    this->column_push_back(value);
    this->count_write(sizeof(T));
    this->count_touch();
  }

  void insert(std::size_t index, const T& value) override {
    assert(index <= data_.size());
    reserve_for_one_more();
    // Shifting the tail: each moved record is one read plus one write,
    // streamed by the core (cheap cycles, expensive accesses).
    const std::size_t moved = data_.size() - index;
    data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(index), value);
    this->column_insert(index, value);
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved + 1);
    this->count_moves(moved);
  }

  T get(std::size_t index) const override {
    assert(index < data_.size());
    this->count_read(sizeof(T));
    this->count_touch();
    return data_[index];
  }

  void set(std::size_t index, const T& value) override {
    assert(index < data_.size());
    data_[index] = value;
    this->column_set(index, value);
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
  }

  void clear() override {
    release();
    data_.clear();
    data_.shrink_to_fit();
    this->column_clear();
    reserved_ = 0;
  }

  void for_each(typename Container<T>::Visitor visitor) const override {
    for (std::size_t i = 0; i < data_.size(); ++i) {
      this->count_read(sizeof(T));
      this->count_touch();
      if (!visitor(i, data_[i])) break;
    }
  }

  // A column search charged as for_each's record reads up to the match.
  std::size_t find_key(std::uint64_t key) const override {
    const std::size_t found = this->column_find(key);
    const std::size_t visits = this->scan_visits(found);
    this->count_read(sizeof(T), visits);
    this->count_touch(visits);
    this->count_key_compares(visits);
    return found;
  }

 private:
  void reserve_for_one_more() {
    if (data_.size() < reserved_) return;
    const std::size_t new_capacity = reserved_ == 0 ? 4 : reserved_ * 2;
    // Growth allocates the new buffer, copies every live record, then
    // frees the old buffer — old and new arrays coexist during the copy,
    // so the peak footprint charges both (the classic dynamic-array
    // penalty in embedded memory budgets).
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

  void release() {
    if (reserved_ != 0) this->count_free(reserved_ * sizeof(T));
    reserved_ = 0;
  }

  std::vector<T> data_;
  std::size_t reserved_ = 0;  // capacity we have charged to the profile
};

}  // namespace ddtr::ddt

