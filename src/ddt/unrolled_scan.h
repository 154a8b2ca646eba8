// UNR — cache-line-sized unrolled list with a vectorizable membership
// scan. Chunks are sized so their record payload fits one 64-byte cache
// line, which changes the accounting unit for traversal: a scan touches
// each chunk's payload as ONE line-wide read (plus header and link), not
// one read per record, and the per-record key comparison inside a chunk is
// charged as streaming SIMD work instead of serially dependent touches.
// The host side of that compare reads the key column (see container.h):
// no key is re-derived during a search. Positional edits behave like a
// singly linked chunked list (shift within the chunk, split on full,
// unlink on empty); chunks come from the arena pool, so churn recycles
// lines instead of calling the allocator.
//
// This is the shape of the related-work unrolled lists built for clique
// enumeration: linear membership scans over packed lines beat both
// pointer-chasing lists (hop per record) and big-array scans (no early
// exit granularity) when the set is small-to-medium and scanned often.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "ddt/container.h"
#include "ddt/kinds.h"
#include "support/arena.h"

namespace ddtr::ddt {

// One cache line of record payload per chunk (at least two records).
// ddtr-accounting-begin (cache-line geometry: footprint + scan cost)
inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
inline constexpr std::size_t kUnrolledScanCapacity =
    std::max<std::size_t>(2, kCacheLineBytes / sizeof(T));
// ddtr-accounting-end

template <typename T>
class UnrolledScanContainer final : public Container<T> {
 public:
  explicit UnrolledScanContainer(
      prof::MemoryProfile& profile,
      typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key), pool_(profile) {}

  ~UnrolledScanContainer() override { destroy_all(); }

  DdtKind kind() const noexcept override { return DdtKind::kUnrolledScan; }
  std::size_t size() const noexcept override { return size_; }

  void push_back(const T& value) override {
    this->count_read(kPointerBytes);  // tail pointer
    this->count_hops(1);
    if (tail_ == nullptr || tail_->count == kCapacity) append_chunk();
    this->count_read(kHeaderBytes);
    tail_->values[tail_->count] = value;
    ++tail_->count;
    this->count_write(sizeof(T));
    this->count_write(kHeaderBytes);
    this->count_touch();
    ++size_;
    this->column_push_back(value);
  }

  void insert(std::size_t index, const T& value) override {
    assert(index <= size_);
    if (index == size_) {
      push_back(value);
      return;
    }
    Pos pos = locate(index);
    if (pos.node->count == kCapacity) {
      split_chunk(pos.node);
      if (pos.offset >= pos.node->count) {
        pos.offset -= pos.node->count;
        pos.prev = pos.node;
        pos.node = pos.node->next;
        this->count_read(kPointerBytes);
      }
    }
    Node* node = pos.node;
    const std::size_t moved = node->count - pos.offset;
    for (std::size_t i = node->count; i > pos.offset; --i) {
      node->values[i] = node->values[i - 1];
    }
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    node->values[pos.offset] = value;
    ++node->count;
    this->count_write(sizeof(T));
    this->count_write(kHeaderBytes);
    ++size_;
    this->column_insert(index, value);
  }

  T get(std::size_t index) const override {
    assert(index < size_);
    const Pos pos = locate(index);
    this->count_read(sizeof(T));
    this->count_touch();
    return pos.node->values[pos.offset];
  }

  void set(std::size_t index, const T& value) override {
    assert(index < size_);
    const Pos pos = locate(index);
    pos.node->values[pos.offset] = value;
    this->column_set(index, value);
    this->count_write(sizeof(T));
    this->count_touch();
  }

  void erase(std::size_t index) override {
    assert(index < size_);
    Pos pos = locate(index);
    Node* node = pos.node;
    const std::size_t moved = node->count - pos.offset - 1;
    for (std::size_t i = pos.offset; i + 1 < node->count; ++i) {
      node->values[i] = node->values[i + 1];
    }
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    --node->count;
    this->count_write(kHeaderBytes);
    --size_;
    this->column_erase(index);
    if (node->count == 0) unlink_chunk(node, pos.prev);
  }

  void clear() override {
    destroy_all();
    pool_.release();
    head_ = tail_ = nullptr;
    size_ = 0;
    this->column_clear();
  }

  // Line-granular traversal: one payload-wide read per chunk, one touch
  // per visited record.
  void for_each(typename Container<T>::Visitor visitor) const override {
    this->count_read(kPointerBytes);  // head pointer
    const Node* node = head_;
    std::size_t base = 0;
    while (node != nullptr) {
      this->count_read(kHeaderBytes);
      this->count_read(node->count * sizeof(T));  // whole line at once
      this->count_hops(1);
      for (std::size_t i = 0; i < node->count; ++i) {
        this->count_touch();
        if (!visitor(base + i, node->values[i])) return;
      }
      base += node->count;
      this->count_read(kPointerBytes);
      node = node->next;
    }
  }

  // Vectorizable membership scan: per chunk one line read plus streaming
  // key compares (no per-record serial dependency), early exit on the
  // chunk holding the match. The compares read the key column, so the
  // host work is the chunk walk that sums the line-granular charge.
  std::size_t find_key(std::uint64_t key) const override {
    const std::size_t found = this->column_find(key);
    std::size_t reached = 0;
    std::size_t line_bytes = 0;
    std::uint64_t compare_ops = 0;
    std::size_t base = 0;
    for (const Node* node = head_;
         node != nullptr && (found == npos || base <= found);
         node = node->next) {
      ++reached;
      line_bytes += node->count * sizeof(T);
      compare_ops += kKeyHashCpuOps + node->count / kMoveElemsPerCpuOp + 1;
      base += node->count;
    }
    const std::size_t passed = found == npos ? reached : reached - 1;
    this->count_read(kPointerBytes, 1 + passed);  // head pointer + links
    this->count_read(kHeaderBytes, reached);
    if (reached != 0) {  // one line read per chunk, line_bytes in all
      this->count_read(line_bytes);
      this->count_read(0, reached - 1);
    }
    this->count_hops(reached);
    this->profile().record_cpu_ops(compare_ops);
    return found;
  }

  // The reference scan: find_key's charges, re-deriving every key of each
  // chunk reached.
  std::size_t scan_find_key(std::uint64_t key) const override {
    this->require_key_fn();
    this->count_read(kPointerBytes);  // head pointer
    const Node* node = head_;
    std::size_t base = 0;
    while (node != nullptr) {
      this->count_read(kHeaderBytes);
      this->count_read(node->count * sizeof(T));
      this->count_hops(1);
      this->profile().record_cpu_ops(
          kKeyHashCpuOps + node->count / kMoveElemsPerCpuOp + 1);
      for (std::size_t i = 0; i < node->count; ++i) {
        if (this->key_of(node->values[i]) == key) return base + i;
      }
      base += node->count;
      this->count_read(kPointerBytes);
      node = node->next;
    }
    return npos;
  }

 private:
  static constexpr std::size_t kCapacity = kUnrolledScanCapacity<T>;
  static constexpr std::size_t kHeaderBytes = sizeof(std::uint16_t);

  struct Node {
    T values[kCapacity];
    std::uint16_t count = 0;
    Node* next = nullptr;
  };

  struct Pos {
    Node* node;
    Node* prev;  // forward predecessor (nullptr for the head chunk)
    std::size_t offset;
  };

  void append_chunk() {
    Node* node = pool_.create();
    if (tail_ == nullptr) {
      head_ = tail_ = node;
    } else {
      tail_->next = node;
      this->count_write(kPointerBytes);
      tail_ = node;
    }
  }

  // Forward chunk walk: entry pointer read, then header + pointer read and
  // a hop per chunk advanced over.
  Pos locate(std::size_t index) const {
    Node* node = head_;
    Node* prev = nullptr;
    std::size_t base = 0;
    this->count_read(kPointerBytes);  // entry pointer
    this->count_read(kHeaderBytes);
    while (index >= base + node->count) {
      base += node->count;
      prev = node;
      node = node->next;
      this->count_read(kPointerBytes);
      this->count_read(kHeaderBytes);
      this->count_hops(1);
    }
    return Pos{node, prev, index - base};
  }

  void split_chunk(Node* node) {
    Node* tail_half = pool_.create();
    const std::size_t keep = kCapacity / 2;
    const std::size_t moved = kCapacity - keep;
    for (std::size_t i = 0; i < moved; ++i) {
      tail_half->values[i] = node->values[keep + i];
    }
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    tail_half->count = static_cast<std::uint16_t>(moved);
    node->count = static_cast<std::uint16_t>(keep);
    this->count_write(kHeaderBytes, 2);
    tail_half->next = node->next;
    node->next = tail_half;
    this->count_write(kPointerBytes, 2);
    if (tail_ == node) tail_ = tail_half;
  }

  void unlink_chunk(Node* node, Node* prev) {
    if (node == head_) head_ = node->next;
    if (node == tail_) tail_ = prev;
    if (prev != nullptr) {
      prev->next = node->next;
      this->count_write(kPointerBytes);
    }
    pool_.destroy(node);
  }

  void destroy_all() {
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node->next;
      pool_.destroy(node);
      node = next;
    }
  }

  support::Pool<Node> pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ddtr::ddt

