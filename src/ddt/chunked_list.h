// SLL(AR) / DLL(AR) / SLL(ARO) / DLL(ARO) / UNR — the unrolled-list
// family: linked chunks each holding up to ChunkCapacity records. Compared
// with plain lists they amortize the pointer and allocator overhead over a
// whole chunk (smaller footprint, fewer hops per position) at the price of
// intra-chunk element moves on insertion/removal. Roving variants cache the
// last visited chunk and its base index.
//
// Two more parameters give UNR (ddt/unrolled_scan.h): the chunk header
// type (the record count; its width is what a header read charges) and
// LineScan. A line-scan list charges a traversal per chunk, not per
// record: one payload-wide read for the whole chunk, and for find_key one
// streaming compare of the chunk's keys (kKeyHashCpuOps plus a
// kMoveElemsPerCpuOp-rate pass) instead of a serially dependent compare
// per record. Positional operations are the same code for every flavour.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "ddt/container.h"
#include "ddt/kinds.h"
#include "support/arena.h"

namespace ddtr::ddt {

// Chunks target roughly 256 bytes of record payload — the ablation bench
// bench_ddt_micro sweeps this choice.
template <typename T>
// ddtr-accounting-begin (chunk capacity: footprint granularity)
inline constexpr std::size_t kDefaultChunkCapacity =
    std::max<std::size_t>(4, 256 / sizeof(T));
// ddtr-accounting-end

template <typename T, bool Doubly, bool Roving,
          std::size_t ChunkCapacity = kDefaultChunkCapacity<T>,
          typename Header = std::uint32_t, bool LineScan = false>
class ChunkedListContainer final : public Container<T> {
  static_assert(ChunkCapacity <= std::numeric_limits<Header>::max(),
                "the chunk header must hold a full chunk's count");
  static_assert(!LineScan || (!Doubly && !Roving),
                "the line scan exists as UNR only: singly linked, no cursor");

 public:
  explicit ChunkedListContainer(
      prof::MemoryProfile& profile,
      typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key), pool_(profile) {}

  ~ChunkedListContainer() override { destroy_all(); }

  DdtKind kind() const noexcept override {
    if constexpr (LineScan) {
      return DdtKind::kUnrolledScan;
    } else if constexpr (Doubly) {
      return Roving ? DdtKind::kDllOfArraysRoving : DdtKind::kDllOfArrays;
    } else {
      return Roving ? DdtKind::kSllOfArraysRoving : DdtKind::kSllOfArrays;
    }
  }

  std::size_t size() const noexcept override { return size_; }

  void push_back(const T& value) override {
    this->count_read(kPointerBytes);  // tail pointer
    this->count_hops(1);
    if (tail_ == nullptr || chunk_full(tail_)) {
      append_chunk();
    }
    this->count_read(kHeaderBytes);  // tail count
    tail_->values[tail_->count] = value;
    ++tail_->count;
    this->count_write(sizeof(T));
    this->count_write(kHeaderBytes);
    this->count_touch();
    ++size_;
    this->column_push_back(value);
    // Indices of existing records are unchanged: roving cache survives.
  }

  void insert(std::size_t index, const T& value) override {
    assert(index <= size_);
    if (index == size_) {
      push_back(value);
      return;
    }
    Pos pos = locate(index);
    if (chunk_full(pos.node)) {
      split_chunk(pos);
      if (pos.offset >= pos.node->count) {
        pos.offset -= pos.node->count;
        pos.base += pos.node->count;
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
    invalidate_roving();
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
    if (node->count == 0) unlink_chunk(pos);
    invalidate_roving();
  }

  void clear() override {
    destroy_all();
    pool_.release();
    head_ = tail_ = nullptr;
    size_ = 0;
    this->column_clear();
    invalidate_roving();
  }

  // A line scan reads each chunk's payload at once; otherwise every
  // visited record is its own read.
  void for_each(typename Container<T>::Visitor visitor) const override {
    this->count_read(kPointerBytes);  // head pointer
    Node* node = head_;
    std::size_t base = 0;
    while (node != nullptr) {
      this->count_read(kHeaderBytes);
      if constexpr (LineScan) this->count_read(node->count * sizeof(T));
      this->count_hops(1);
      update_roving(node, base);
      for (std::size_t i = 0; i < node->count; ++i) {
        if constexpr (!LineScan) this->count_read(sizeof(T));
        this->count_touch();
        if (!visitor(base + i, node->values[i])) return;
      }
      base += node->count;
      this->count_read(kPointerBytes);
      node = node->next;
    }
  }

  // A column search charged as scan_find_key's walk up to the match: the
  // head pointer, a header read and hop per chunk reached, a link read per
  // chunk passed; then a record read, touch and key compare per visit, or
  // for a line scan one line read and one streaming compare per chunk
  // reached. The host walks the chunks only to count them; roving variants
  // leave the cursor on the last chunk reached, as for_each does.
  std::size_t find_key(std::uint64_t key) const override {
    const std::size_t found = this->column_find(key);
    std::size_t reached = 0;
    std::size_t line_bytes = 0;
    std::uint64_t compare_ops = 0;
    std::size_t base = 0;
    Node* node = head_;
    while (node != nullptr && (found == npos || base <= found)) {
      ++reached;
      update_roving(node, base);
      if constexpr (LineScan) {
        line_bytes += node->count * sizeof(T);
        compare_ops += line_compare_ops(node);
      }
      base += node->count;
      node = node->next;
    }
    const std::size_t passed = found == npos ? reached : reached - 1;
    this->count_read(kPointerBytes, 1 + passed);
    this->count_read(kHeaderBytes, reached);
    this->count_hops(reached);
    if constexpr (LineScan) {
      if (reached != 0) {  // one line read per chunk, line_bytes in all
        this->count_read(line_bytes);
        this->count_read(0, reached - 1);
      }
      this->profile().record_cpu_ops(compare_ops);
    } else {
      const std::size_t visits = this->scan_visits(found);
      this->count_read(sizeof(T), visits);
      this->count_touch(visits);
      this->count_key_compares(visits);
    }
    return found;
  }

  // The reference scan. A line scan re-derives every key of each chunk it
  // reaches under that chunk's one streaming compare; otherwise it is the
  // per-record walk every kind shares.
  std::size_t scan_find_key(std::uint64_t key) const override {
    if constexpr (!LineScan) {
      return Container<T>::scan_find_key(key);
    } else {
      this->require_key_fn();
      this->count_read(kPointerBytes);  // head pointer
      const Node* node = head_;
      std::size_t base = 0;
      while (node != nullptr) {
        this->count_read(kHeaderBytes);
        this->count_read(node->count * sizeof(T));
        this->count_hops(1);
        this->profile().record_cpu_ops(line_compare_ops(node));
        for (std::size_t i = 0; i < node->count; ++i) {
          if (this->key_of(node->values[i]) == key) return base + i;
        }
        base += node->count;
        this->count_read(kPointerBytes);
        node = node->next;
      }
      return npos;
    }
  }

 private:
  static constexpr std::size_t kHeaderBytes = sizeof(Header);

  struct NodeSingle {
    T values[ChunkCapacity];
    Header count = 0;
    NodeSingle* next = nullptr;
  };
  struct NodeDouble {
    T values[ChunkCapacity];
    Header count = 0;
    NodeDouble* next = nullptr;
    NodeDouble* prev = nullptr;
  };
  using Node = std::conditional_t<Doubly, NodeDouble, NodeSingle>;

  // A located logical position: the chunk, the chunk preceding it in
  // forward order (nullptr when unknown or none), the logical index of the
  // chunk's first record, and the offset within the chunk.
  struct Pos {
    Node* node;
    Node* prev;
    std::size_t base;
    std::size_t offset;
  };

  static bool chunk_full(const Node* node) noexcept {
    return node->count == ChunkCapacity;
  }

  // A line scan's compare of one chunk's keys: one key derivation's worth
  // of setup plus a streaming pass over the records.
  static std::uint64_t line_compare_ops(const Node* node) noexcept {
    return kKeyHashCpuOps + node->count / kMoveElemsPerCpuOp + 1;
  }

  Node* new_chunk() { return pool_.create(); }

  void free_chunk(Node* node) { pool_.destroy(node); }

  void destroy_all() {
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node->next;
      free_chunk(node);
      node = next;
    }
  }

  void append_chunk() {
    Node* node = new_chunk();
    if (tail_ == nullptr) {
      head_ = tail_ = node;
    } else {
      tail_->next = node;
      this->count_write(kPointerBytes);
      if constexpr (Doubly) {
        node->prev = tail_;
        this->count_write(kPointerBytes);
      }
      tail_ = node;
    }
  }

  // Walks to the chunk containing `index`. Charges one entry pointer read
  // plus, per chunk advanced over, a header read and a pointer read.
  Pos locate(std::size_t index) const {
    // Candidate starts: head (forward), tail (backward, doubly only),
    // roving cache (forward; both directions when doubly).
    Node* node = head_;
    Node* prev = nullptr;
    std::size_t base = 0;
    bool backward = false;

    if constexpr (Doubly) {
      // Distances measured in records are a proxy for chunk hops.
      if (index > size_ / 2) {
        node = tail_;
        base = size_ - tail_->count;
        backward = true;
      }
    }
    if constexpr (Roving) {
      if (rov_node_ != nullptr) {
        const bool ahead = index >= rov_base_;
        const std::size_t dist =
            ahead ? index - rov_base_ : rov_base_ - index;
        const std::size_t cur_dist =
            backward ? (index > size_ - 1 ? 0 : size_ - 1 - index) : index;
        if ((ahead || Doubly) && dist < cur_dist) {
          node = rov_node_;
          prev = nullptr;
          base = rov_base_;
          backward = !ahead;
        }
      }
    }

    this->count_read(kPointerBytes);  // entry pointer
    if (backward) {
      if constexpr (Doubly) {
        this->count_read(kHeaderBytes);
        while (index < base) {
          node = node->prev;
          this->count_read(kPointerBytes);
          this->count_read(kHeaderBytes);
          this->count_hops(1);
          base -= node->count;
        }
        prev = node->prev;
      }
    } else {
      this->count_read(kHeaderBytes);
      while (index >= base + node->count) {
        base += node->count;
        prev = node;
        node = node->next;
        this->count_read(kPointerBytes);
        this->count_read(kHeaderBytes);
        this->count_hops(1);
      }
    }
    update_roving(node, base);
    return Pos{node, prev, base, index - base};
  }

  // Splits a full chunk in two, moving the upper half into a fresh chunk
  // linked right after it.
  void split_chunk(Pos& pos) {
    Node* node = pos.node;
    Node* tail_half = new_chunk();
    const std::size_t keep = ChunkCapacity / 2;
    const std::size_t moved = ChunkCapacity - keep;
    for (std::size_t i = 0; i < moved; ++i) {
      tail_half->values[i] = node->values[keep + i];
    }
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    tail_half->count = static_cast<Header>(moved);
    node->count = static_cast<Header>(keep);
    this->count_write(kHeaderBytes, 2);

    tail_half->next = node->next;
    node->next = tail_half;
    this->count_write(kPointerBytes, 2);
    if constexpr (Doubly) {
      tail_half->prev = node;
      if (tail_half->next != nullptr) tail_half->next->prev = tail_half;
      this->count_write(kPointerBytes, 2);
    }
    if (tail_ == node) tail_ = tail_half;
  }

  void unlink_chunk(Pos& pos) {
    Node* node = pos.node;
    Node* prev = pos.prev;
    if constexpr (Doubly) {
      prev = node->prev;
    } else if (prev == nullptr && node != head_) {
      // Forward predecessor unknown (roving entry): find it from the head.
      prev = head_;
      this->count_read(kPointerBytes);
      while (prev->next != node) {
        prev = prev->next;
        this->count_read(kPointerBytes);
      }
    }
    if (node == head_) head_ = node->next;
    if (node == tail_) tail_ = prev;
    if (prev != nullptr) {
      prev->next = node->next;
      this->count_write(kPointerBytes);
    }
    if constexpr (Doubly) {
      if (node->next != nullptr) {
        node->next->prev = prev;
        this->count_write(kPointerBytes);
      }
    }
    free_chunk(node);
  }

  void update_roving(Node* node, std::size_t base) const {
    if constexpr (Roving) {
      rov_node_ = node;
      rov_base_ = base;
    } else {
      (void)node;
      (void)base;
    }
  }

  void invalidate_roving() const {
    if constexpr (Roving) {
      rov_node_ = nullptr;
      rov_base_ = 0;
    }
  }

  support::Pool<Node> pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
  mutable Node* rov_node_ = nullptr;
  mutable std::size_t rov_base_ = 0;
};

template <typename T>
using SllOfArraysContainer = ChunkedListContainer<T, false, false>;
template <typename T>
using DllOfArraysContainer = ChunkedListContainer<T, true, false>;
template <typename T>
using SllOfArraysRovingContainer = ChunkedListContainer<T, false, true>;
template <typename T>
using DllOfArraysRovingContainer = ChunkedListContainer<T, true, true>;

}  // namespace ddtr::ddt

