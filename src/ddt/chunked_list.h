// SLL(AR) / DLL(AR) / SLL(ARO) / DLL(ARO) / UNR — the unrolled-list
// family: linked chunks each holding up to ChunkCapacity records. Compared
// with plain lists they amortize the pointer and allocator overhead over a
// whole chunk (smaller footprint, fewer hops per position) at the price of
// intra-chunk element moves on insertion/removal. Roving variants resume
// walks from the last visited chunk.
//
// Two more parameters give UNR (ddt/unrolled_scan.h): the chunk header
// type (the record count; its width is what a header read charges) and
// LineScan. A line-scan list charges a traversal per chunk, not per
// record: one payload-wide read for the whole chunk, and for find_key one
// streaming compare of the chunk's keys (kKeyHashCpuOps plus a
// kMoveElemsPerCpuOp-rate pass) instead of a serially dependent compare
// per record. Positional operations are the same code for every flavour.
//
// Host-side finger. Beside the modeled chunks every list keeps, never
// charged: the chunk count, for a line scan the sum of its chunks'
// count / kMoveElemsPerCpuOp, and a finger on the chunk the last access
// settled on (the chunk, its base index, its ordinal, its forward
// predecessor when the host passed it, and for a line scan that sum over
// the chunks before it). Invariant: the finger's base, ordinal and prefix
// sum are exact for its chunk, or the finger is empty. Edits keep it so:
// push_back changes only the tail; insert and erase first settle the
// finger on the chunk they edit, so only later chunks shift; unlinking
// the finger's chunk and clear() drop it. A roving list's cursor is the
// finger itself, valid until the next insert or erase.
//
// A positional walk keeps its modeled entry point (head, tail, or the
// roving cursor) and settles the target on the host from there, or, from
// the head, from the tail chunk or the finger when the target lies there
// or past it. It then charges |ordinal(target) - ordinal(entry)| hops in
// one bulk charge. find_key charges a miss from the running totals and a
// hit from the ordinal of the chunk holding the match.
//
// Known predecessor: the modeled walk knows the predecessor of the chunk
// it lands on after any forward hop (and the head has none), whichever
// way the host settled, so unlinking that chunk charges nothing to find
// it. Only a roving entry that lands with 0 hops on a chunk past the head
// leaves it unknown; a singly linked list then charges the pointer walk
// from the head to it.
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
    set_count(tail_, tail_->count + 1u);
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
      split_chunk(pos.node);
      if (pos.offset >= pos.node->count) {
        pos.offset -= pos.node->count;
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
    set_count(node, node->count + 1u);
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
    const Pos pos = locate(index);
    Node* node = pos.node;
    const std::size_t moved = node->count - pos.offset - 1;
    for (std::size_t i = pos.offset; i + 1 < node->count; ++i) {
      node->values[i] = node->values[i + 1];
    }
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    set_count(node, node->count - 1u);
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
    chunks_ = 0;
    stream_ops_ = 0;
    finger_ = Finger{};
    this->column_clear();
    invalidate_roving();
  }

  // A line scan reads each chunk's payload at once; otherwise every
  // visited record is its own read. Leaves the finger (and the roving
  // cursor) on the last chunk visited.
  void for_each(typename Container<T>::Visitor visitor) const override {
    this->count_read(kPointerBytes);  // head pointer
    if (head_ == nullptr) return;
    for (Finger f = head_finger(); f.node != nullptr; step_forward(f)) {
      const Node* node = f.node;
      this->count_read(kHeaderBytes);
      if constexpr (LineScan) this->count_read(node->count * sizeof(T));
      this->count_hops(1);
      for (std::size_t i = 0; i < node->count; ++i) {
        if constexpr (!LineScan) this->count_read(sizeof(T));
        this->count_touch();
        if (!visitor(f.base + i, node->values[i])) {
          finger_ = f;
          update_roving();
          return;
        }
      }
      this->count_read(kPointerBytes);
    }
    finger_ = tail_finger();
    update_roving();
  }

  // A column search charged as scan_find_key's walk up to the match: the
  // head pointer, a header read and hop per chunk reached, a link read per
  // chunk passed; then a record read, touch and key compare per visit, or
  // for a line scan one line read and one streaming compare per chunk
  // reached. The finger settles on the last chunk reached (the match's,
  // or on a miss the tail, from the running totals), and its ordinal,
  // base and stream sum price the whole walk. Roving variants leave the
  // cursor on that chunk, as for_each does.
  std::size_t find_key(std::uint64_t key) const override {
    const std::size_t found = this->column_find(key);
    std::size_t reached = 0;
    Finger f;
    if (size_ != 0) {
      f = settle(found == npos ? size_ - 1 : found, head_finger());
      reached = f.ord + 1;
      update_roving();
    }
    const std::size_t passed = found == npos ? reached : reached - 1;
    this->count_read(kPointerBytes, 1 + passed);
    this->count_read(kHeaderBytes, reached);
    this->count_hops(reached);
    if constexpr (LineScan) {
      if (reached != 0) {  // one line read per chunk, every record in all
        this->count_read((f.base + f.node->count) * sizeof(T));
        this->count_read(0, reached - 1);
        this->profile().record_cpu_ops((kKeyHashCpuOps + 1) * reached +
                                       f.stream_before + stream_of(f.node));
      }
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
        this->profile().record_cpu_ops(kKeyHashCpuOps + 1 + stream_of(node));
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

  // The host-side finger (see the file comment). `prev` is the forward
  // predecessor, nullptr when the chunk is the head or the host did not
  // pass it (doubly linked lists read node->prev instead);
  // `stream_before` is kept by line scans only.
  struct Finger {
    Node* node = nullptr;
    Node* prev = nullptr;
    std::size_t base = 0;
    std::size_t ord = 0;
    std::uint64_t stream_before = 0;
  };

  // A located logical position: the chunk (the finger's), the offset
  // within it, and whether the modeled walk knows the chunk's predecessor.
  struct Pos {
    Node* node;
    std::size_t offset;
    bool prev_known;
  };

  static bool chunk_full(const Node* node) noexcept {
    return node->count == ChunkCapacity;
  }

  // The streaming part of a line scan's compare of one chunk's keys; the
  // compare also pays kKeyHashCpuOps + 1 of setup per chunk.
  static std::uint64_t stream_of(const Node* node) noexcept {
    return node->count / kMoveElemsPerCpuOp;
  }

  // Sets a chunk's record count and keeps the stream total current.
  void set_count(Node* node, std::size_t count) {
    if constexpr (LineScan) {
      stream_ops_ -= stream_of(node);
      node->count = static_cast<Header>(count);
      stream_ops_ += stream_of(node);
    } else {
      node->count = static_cast<Header>(count);
    }
  }

  Node* new_chunk() {
    ++chunks_;
    return pool_.create();
  }

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

  // Moves the finger onto the chunk holding `index` (< size_) and returns
  // it. The host walks from `f`, the modeled entry point, except that
  // from the head it starts at the tail chunk or at the finger when the
  // target lies there or past it. Charges nothing. Works on a local copy,
  // stored once: the profile's counters may alias the finger's fields.
  // Forced inline, as is locate: out of line, the call and the result
  // passed through memory cost more than a short list's walk.
  [[gnu::always_inline]] Finger settle(std::size_t index, Finger f) const {
    if (f.node == head_) {
      if (index >= size_ - tail_->count) {
        f = tail_finger();
      } else if (finger_.node != nullptr && index >= finger_.base) {
        f = finger_;
      }
    }
    if constexpr (Doubly) {
      while (index < f.base) {
        f.node = f.node->prev;
        f.base -= f.node->count;
        --f.ord;
      }
    }
    while (index >= f.base + f.node->count) step_forward(f);
    finger_ = f;
    return f;
  }

  // Moves a finger one chunk forward, past its chunk's records.
  static void step_forward(Finger& f) noexcept {
    if constexpr (LineScan) f.stream_before += stream_of(f.node);
    f.base += f.node->count;
    f.prev = f.node;
    f.node = f.node->next;
    ++f.ord;
  }

  Finger head_finger() const { return Finger{head_, nullptr, 0, 0, 0}; }

  // A finger on the tail chunk, from the running totals; its predecessor
  // is not known on the host.
  Finger tail_finger() const {
    return Finger{tail_, nullptr, size_ - tail_->count, chunks_ - 1,
                  LineScan ? stream_ops_ - stream_of(tail_) : 0};
  }

  // Settles the chunk containing `index`, then charges the modeled walk
  // to it: one entry pointer read and its chunk's header read, plus per
  // chunk advanced over a pointer read, a header read and a hop.
  [[gnu::always_inline]] Pos locate(std::size_t index) const {
    // Candidate entries: head (forward), tail (backward, doubly only),
    // roving cursor (forward; both directions when doubly).
    Finger entry = head_finger();
    bool from_tail = false;
    bool roving_entry = false;
    if constexpr (Doubly) {
      // Distances measured in records are a proxy for chunk hops.
      if (index > size_ / 2) {
        entry = tail_finger();
        from_tail = true;
      }
    }
    if constexpr (Roving) {
      if (rov_valid_) {
        const bool ahead = index >= finger_.base;
        const std::size_t dist =
            ahead ? index - finger_.base : finger_.base - index;
        const std::size_t cur_dist = from_tail ? size_ - 1 - index : index;
        if ((ahead || Doubly) && dist < cur_dist) {
          entry = finger_;
          roving_entry = true;
        }
      }
    }

    const Finger f = settle(index, entry);
    const std::size_t hops =
        f.ord >= entry.ord ? f.ord - entry.ord : entry.ord - f.ord;
    this->count_read(kPointerBytes, 1 + hops);
    this->count_read(kHeaderBytes, 1 + hops);
    this->count_hops(hops);
    update_roving();
    return Pos{f.node, index - f.base,
               !roving_entry || hops != 0 || f.node == head_};
  }

  // Splits a full chunk in two, moving the upper half into a fresh chunk
  // linked right after it.
  void split_chunk(Node* node) {
    Node* tail_half = new_chunk();
    const std::size_t keep = ChunkCapacity / 2;
    const std::size_t moved = ChunkCapacity - keep;
    for (std::size_t i = 0; i < moved; ++i) {
      tail_half->values[i] = node->values[keep + i];
    }
    this->count_read(sizeof(T), moved);
    this->count_write(sizeof(T), moved);
    this->count_moves(moved);
    set_count(tail_half, moved);
    set_count(node, keep);
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

  // Unlinks an emptied chunk (the finger's, as erase settled it) and drops
  // the finger.
  void unlink_chunk(const Pos& pos) {
    Node* node = pos.node;
    Node* prev = finger_.prev;
    if constexpr (Doubly) {
      prev = node->prev;
    } else if (node != head_) {
      // Forward predecessor unknown to the model (roving entry, 0 hops):
      // charge the pointer walk from the head to it.
      if (!pos.prev_known) this->count_read(kPointerBytes, finger_.ord);
      if (prev == nullptr) {  // not passed on the host: find it there
        prev = head_;
        while (prev->next != node) prev = prev->next;
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
    --chunks_;
    finger_ = Finger{};
  }

  // A roving list's cursor is the finger, valid from the first access
  // after an insert or erase until the next one.
  void update_roving() const {
    if constexpr (Roving) rov_valid_ = true;
  }

  void invalidate_roving() const {
    if constexpr (Roving) rov_valid_ = false;
  }

  support::Pool<Node> pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
  std::size_t chunks_ = 0;       // running total, host-side
  std::uint64_t stream_ops_ = 0;  // line scans: sum of stream_of, host-side
  mutable Finger finger_;
  mutable bool rov_valid_ = false;  // roving lists: cursor at the finger
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

