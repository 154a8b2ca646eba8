// SLL / DLL / SLL(O) / DLL(O) — the linked-list family of the DDT library,
// implemented as one template parameterized on linkage (singly/doubly) and
// on the roving pointer optimization.
//
// Cost structure:
//  * reaching logical position i costs one container-header read plus one
//    pointer read per hop; a DLL can start from whichever end is closer;
//  * a roving pointer caches the last visited (node, index) so sequential
//    access patterns (the common case in trace-driven network kernels)
//    cost O(1) per access instead of O(i);
//  * nodes come from a support::Pool arena — footprint is charged per
//    chunk (slack included) and node churn recycles through the free
//    list; the links (one or two pointers per node) are the lists'
//    footprint cost per record.
//
// Beside the links, every list keeps a host-side node index: the node
// pointers in logical order, outside the modeled node type and never
// charged (like the key column). A walk to position i charges the hops
// the cheapest entry point needs, then takes the node from the index
// instead of chasing it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "ddt/container.h"
#include "ddt/kinds.h"
#include "support/arena.h"

namespace ddtr::ddt {

template <typename T, bool Doubly, bool Roving>
class ListContainer final : public Container<T> {
 public:
  explicit ListContainer(
      prof::MemoryProfile& profile,
      typename Container<T>::KeyFn key = nullptr)
      : Container<T>(profile, key), pool_(profile) {}

  ~ListContainer() override { destroy_all(); }

  DdtKind kind() const noexcept override {
    if constexpr (Doubly) {
      return Roving ? DdtKind::kDllRoving : DdtKind::kDll;
    } else {
      return Roving ? DdtKind::kSllRoving : DdtKind::kSll;
    }
  }

  std::size_t size() const noexcept override { return size_; }

  void push_back(const T& value) override {
    Node* node = new_node(value);
    this->count_read(kPointerBytes);  // tail pointer
    this->count_hops(1);
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
    ++size_;
    nodes_.push_back(node);
    this->column_push_back(value);
    // Appending never shifts logical indices, so the roving cache survives.
  }

  void insert(std::size_t index, const T& value) override {
    assert(index <= size_);
    if (index == size_) {
      push_back(value);
      return;
    }
    Node* node = new_node(value);
    if (index == 0) {
      node->next = head_;
      this->count_write(kPointerBytes);
      if constexpr (Doubly) {
        head_->prev = node;
        this->count_write(kPointerBytes);
      }
      head_ = node;
    } else {
      Node* prev = walk_to(index - 1);
      node->next = prev->next;
      prev->next = node;
      this->count_write(kPointerBytes, 2);
      this->count_hops(2);
      if constexpr (Doubly) {
        node->prev = prev;
        node->next->prev = node;
        this->count_write(kPointerBytes, 2);
      }
    }
    ++size_;
    nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(index), node);
    this->column_insert(index, value);
    invalidate_roving();
  }

  T get(std::size_t index) const override {
    assert(index < size_);
    Node* node = walk_to(index);
    this->count_read(sizeof(T));
    return node->value;
  }

  void set(std::size_t index, const T& value) override {
    assert(index < size_);
    Node* node = walk_to(index);
    node->value = value;
    this->column_set(index, value);
    this->count_write(sizeof(T));
  }

  void erase(std::size_t index) override {
    assert(index < size_);
    Node* victim;
    if (index == 0) {
      victim = head_;
      this->count_read(kPointerBytes);  // victim->next
      head_ = victim->next;
      if (head_ == nullptr) {
        tail_ = nullptr;
      } else if constexpr (Doubly) {
        head_->prev = nullptr;
        this->count_write(kPointerBytes);
      }
    } else {
      Node* prev = walk_to(index - 1);
      victim = prev->next;
      this->count_read(kPointerBytes, 2);  // prev->next, victim->next
      prev->next = victim->next;
      this->count_write(kPointerBytes);
      this->count_hops(2);
      if (victim == tail_) {
        tail_ = prev;
      } else if constexpr (Doubly) {
        victim->next->prev = prev;
        this->count_write(kPointerBytes);
      }
    }
    delete_node(victim);
    --size_;
    nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(index));
    this->column_erase(index);
    invalidate_roving();
  }

  void clear() override {
    destroy_all();
    pool_.release();
    head_ = tail_ = nullptr;
    size_ = 0;
    nodes_.clear();
    nodes_.shrink_to_fit();
    this->column_clear();
    invalidate_roving();
  }

  void for_each(typename Container<T>::Visitor visitor) const override {
    this->count_read(kPointerBytes);  // head pointer
    Node* node = head_;
    std::size_t index = 0;
    while (node != nullptr) {
      this->count_read(sizeof(T));
      update_roving(index);
      if (!visitor(index, node->value)) break;
      this->count_read(kPointerBytes);  // node->next
      this->count_hops(1);
      node = node->next;
      ++index;
    }
  }

  // A column search charged as for_each's walk up to the match: the head
  // pointer, a record read per visit, a link read and hop per record
  // passed. Roving variants leave the cursor where for_each leaves it.
  std::size_t find_key(std::uint64_t key) const override {
    const std::size_t found = this->column_find(key);
    const std::size_t visits = this->scan_visits(found);
    const std::size_t passed = found == npos ? visits : found;
    this->count_read(kPointerBytes, 1 + passed);
    this->count_read(sizeof(T), visits);
    this->count_hops(passed);
    this->count_key_compares(visits);
    if (found != npos) {
      update_roving(found);
    } else if (size_ != 0) {
      update_roving(size_ - 1);
    }
    return found;
  }

 private:
  struct NodeSingle {
    T value;
    NodeSingle* next = nullptr;
  };
  struct NodeDouble {
    T value;
    NodeDouble* next = nullptr;
    NodeDouble* prev = nullptr;
  };
  using Node = std::conditional_t<Doubly, NodeDouble, NodeSingle>;

  Node* new_node(const T& value) {
    this->count_write(sizeof(T));
    Node* node = pool_.create();
    node->value = value;
    return node;
  }

  void delete_node(Node* node) { pool_.destroy(node); }

  void destroy_all() {
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node->next;
      delete_node(node);
      node = next;
    }
  }

  // Reaches logical position `index`, charging one pointer read for picking
  // up the entry pointer (head/tail/roving cache) plus one per hop, from
  // whichever entry point needs the fewest.
  Node* walk_to(std::size_t index) const {
    std::size_t hops = index + 1;  // from the head
    if constexpr (Doubly) hops = std::min(hops, size_ - index);  // tail
    if constexpr (Roving) {
      if (rov_index_ != npos) {
        if (index >= rov_index_) {
          hops = std::min(hops, index - rov_index_ + 1);
        } else if constexpr (Doubly) {
          hops = std::min(hops, rov_index_ - index + 1);
        }
      }
    }
    this->count_read(kPointerBytes, hops);
    this->count_hops(hops);
    update_roving(index);
    return nodes_[index];
  }

  void update_roving(std::size_t index) const {
    if constexpr (Roving) {
      rov_index_ = index;
    } else {
      (void)index;
    }
  }

  void invalidate_roving() const {
    if constexpr (Roving) rov_index_ = npos;
  }

  support::Pool<Node> pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
  std::vector<Node*> nodes_;  // host-side node index, logical order
  mutable std::size_t rov_index_ = npos;  // roving cursor, npos = unset
};

template <typename T>
using SllContainer = ListContainer<T, false, false>;
template <typename T>
using DllContainer = ListContainer<T, true, false>;
template <typename T>
using SllRovingContainer = ListContainer<T, false, true>;
template <typename T>
using DllRovingContainer = ListContainer<T, true, true>;

}  // namespace ddtr::ddt

