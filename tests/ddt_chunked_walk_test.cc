// Per-operation oracle for the unrolled lists (SLL(AR), DLL(AR), their
// roving forms and UNR). The containers settle positions on the host and
// charge each walk in one bulk charge; this test keeps a slow model of the
// same cost model that charges every modeled hop one at a time: a vector
// of per-chunk record counts (append when the tail is full, a split keeps
// capacity / 2, an emptied chunk is unlinked), the head / tail / roving
// entry-point rule, and a pool of chunk-sized shadow nodes for the
// allocation charges. Seeded mixes of every operation run on the container
// and on the model side by side, through make_container and through
// visit_container, and the results and all counters must agree after
// every operation; a failure names the step and the operation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ddt/factory.h"
#include "support/arena.h"
#include "support/fnv_hash.h"
#include "support/rng.h"

namespace ddtr {
namespace {

// 24 bytes: ten records per unrolled-list chunk, two per UNR line.
struct Rec {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t hits = 0;
  bool operator==(const Rec&) const = default;
};

std::uint64_t rec_key(const Rec& r) {
  return support::mix64(r.src * 31 + r.dst);
}

template <bool Doubly, bool Roving, std::size_t Cap, typename Header,
          bool LineScan>
class ChunkedModel {
 public:
  ChunkedModel() : pool_(profile_) {}
  ~ChunkedModel() { clear_nodes(); }

  const prof::ProfileCounters& counters() const {
    return profile_.counters();
  }
  const std::vector<Rec>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  void push_back(const Rec& r) {
    read(kPtr);  // tail pointer
    hops(1);
    if (counts_.empty() || counts_.back() == Cap) {
      nodes_.push_back(pool_.create());
      counts_.push_back(0);
      if (counts_.size() > 1) write(kPtr, Doubly ? 2 : 1);  // links
    }
    read(kHdr);
    ++counts_.back();
    write(sizeof(Rec));
    write(kHdr);
    touch();
    records_.push_back(r);
  }

  void insert(std::size_t index, const Rec& r) {
    if (index == size()) {
      push_back(r);
      return;
    }
    Where w = locate(index);
    if (counts_[w.ord] == Cap) {
      nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(w.ord) + 1,
                    pool_.create());
      const std::size_t keep = Cap / 2;
      read(sizeof(Rec), Cap - keep);
      write(sizeof(Rec), Cap - keep);
      moves(Cap - keep);
      counts_[w.ord] = keep;
      counts_.insert(counts_.begin() + static_cast<std::ptrdiff_t>(w.ord) + 1,
                     Cap - keep);
      write(kHdr, 2);
      write(kPtr, Doubly ? 4 : 2);
      if (w.offset >= keep) {
        w.offset -= keep;
        ++w.ord;
        read(kPtr);
      }
    }
    const std::size_t moved = counts_[w.ord] - w.offset;
    read(sizeof(Rec), moved);
    write(sizeof(Rec), moved);
    moves(moved);
    ++counts_[w.ord];
    write(sizeof(Rec));
    write(kHdr);
    records_.insert(records_.begin() + static_cast<std::ptrdiff_t>(index), r);
    rov_ord_ = kUnset;
  }

  Rec get(std::size_t index) {
    locate(index);
    read(sizeof(Rec));
    touch();
    return records_[index];
  }

  void set(std::size_t index, const Rec& r) {
    locate(index);
    write(sizeof(Rec));
    touch();
    records_[index] = r;
  }

  void erase(std::size_t index) {
    const Where w = locate(index);
    const std::size_t moved = counts_[w.ord] - w.offset - 1;
    read(sizeof(Rec), moved);
    write(sizeof(Rec), moved);
    moves(moved);
    --counts_[w.ord];
    write(kHdr);
    records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(index));
    if (counts_[w.ord] == 0) {
      // A singly linked walk that took no hop did not pass the
      // predecessor: it is found by a pointer walk from the head.
      if (!Doubly && w.hops == 0 && w.ord != 0) read(kPtr, w.ord);
      if (w.ord != 0) write(kPtr);                              // prev->next
      if (Doubly && w.ord + 1 != counts_.size()) write(kPtr);  // next->prev
      pool_.destroy(nodes_[w.ord]);
      nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(w.ord));
      counts_.erase(counts_.begin() + static_cast<std::ptrdiff_t>(w.ord));
    }
    rov_ord_ = kUnset;
  }

  void clear() {
    clear_nodes();
    pool_.release();
    records_.clear();
    rov_ord_ = kUnset;
  }

  // Visits records front to back until `stop` returns true for one.
  template <typename Stop>
  std::size_t walk(Stop stop) {
    read(kPtr);  // head pointer
    std::size_t base = 0;
    for (std::size_t ord = 0; ord < counts_.size(); ++ord) {
      read(kHdr);
      if (LineScan) read(counts_[ord] * sizeof(Rec));
      hops(1);
      cursor(base, ord);
      for (std::size_t i = 0; i < counts_[ord]; ++i) {
        if (!LineScan) read(sizeof(Rec));
        touch();
        if (stop(base + i)) return base + i;
      }
      base += counts_[ord];
      read(kPtr);
    }
    return ddt::npos;
  }

  std::size_t for_each_until(std::size_t stop) {
    return walk([&](std::size_t i) { return i >= stop; });
  }

  std::size_t find_key(std::uint64_t key) {
    const auto hit = [&](std::size_t i) {
      return rec_key(records_[i]) == key;
    };
    if (!LineScan) {
      // The reference scan of every per-record kind: for_each plus a key
      // derivation and compare per visited record.
      std::size_t found = ddt::npos;
      walk([&](std::size_t i) {
        profile_.record_cpu_ops(ddt::kKeyHashCpuOps + ddt::kTouchCpuOps);
        if (hit(i)) found = i;
        return found != ddt::npos;
      });
      return found;
    }
    read(kPtr);  // head pointer
    std::size_t base = 0;
    for (std::size_t ord = 0; ord < counts_.size(); ++ord) {
      read(kHdr);
      read(counts_[ord] * sizeof(Rec));
      hops(1);
      profile_.record_cpu_ops(ddt::kKeyHashCpuOps +
                              counts_[ord] / ddt::kMoveElemsPerCpuOp + 1);
      for (std::size_t i = 0; i < counts_[ord]; ++i) {
        if (hit(base + i)) return base + i;
      }
      base += counts_[ord];
      read(kPtr);
    }
    return ddt::npos;
  }

 private:
  static constexpr std::size_t kPtr = ddt::kPointerBytes;
  static constexpr std::size_t kHdr = sizeof(Header);
  static constexpr std::size_t kUnset = ddt::npos;

  // Same size as the container's chunk node, so this pool charges the
  // same chunk allocations as the container's.
  struct ShadowSingle {
    Rec values[Cap];
    Header count;
    void* next;
  };
  struct ShadowDouble {
    Rec values[Cap];
    Header count;
    void* next;
    void* prev;
  };
  using Shadow = std::conditional_t<Doubly, ShadowDouble, ShadowSingle>;

  struct Where {
    std::size_t ord;     // chunk ordinal
    std::size_t offset;  // within the chunk
    std::size_t hops;    // modeled hops taken to reach it
  };

  void read(std::size_t bytes, std::size_t n = 1) {
    profile_.record_read(bytes, n);
  }
  void write(std::size_t bytes, std::size_t n = 1) {
    profile_.record_write(bytes, n);
  }
  void hops(std::size_t n) { profile_.record_cpu_ops(ddt::kHopCpuOps * n); }
  void touch() { profile_.record_cpu_ops(ddt::kTouchCpuOps); }
  void moves(std::size_t n) {
    profile_.record_cpu_ops(n / ddt::kMoveElemsPerCpuOp + 1);
  }

  void cursor(std::size_t base, std::size_t ord) {
    if (Roving) {
      rov_base_ = base;
      rov_ord_ = ord;
    }
  }

  // The modeled walk, one hop at a time: enter at the head, at the tail
  // (doubly, past the middle record) or at the roving cursor (when it is
  // nearer in records, forward only on singly linked lists), then step
  // chunk by chunk.
  Where locate(std::size_t index) {
    const std::size_t n = size();
    std::size_t ord = 0;
    std::size_t base = 0;
    bool backward = false;
    if (Doubly && index > n / 2) {
      ord = counts_.size() - 1;
      base = n - counts_.back();
      backward = true;
    }
    if (Roving && rov_ord_ != kUnset) {
      const bool ahead = index >= rov_base_;
      const std::size_t dist = ahead ? index - rov_base_ : rov_base_ - index;
      const std::size_t cur_dist = backward ? n - 1 - index : index;
      if ((ahead || Doubly) && dist < cur_dist) {
        ord = rov_ord_;
        base = rov_base_;
        backward = !ahead;
      }
    }
    read(kPtr);  // entry pointer
    read(kHdr);
    std::size_t taken = 0;
    while (backward ? index < base : index >= base + counts_[ord]) {
      if (backward) {
        --ord;
        base -= counts_[ord];
      } else {
        base += counts_[ord];
        ++ord;
      }
      read(kPtr);
      read(kHdr);
      hops(1);
      ++taken;
    }
    cursor(base, ord);
    return Where{ord, index - base, taken};
  }

  void clear_nodes() {
    for (Shadow* node : nodes_) pool_.destroy(node);
    nodes_.clear();
    counts_.clear();
  }

  prof::MemoryProfile profile_;
  support::Pool<Shadow> pool_;
  std::vector<Shadow*> nodes_;
  std::vector<std::size_t> counts_;
  std::vector<Rec> records_;
  std::size_t rov_base_ = 0;
  std::size_t rov_ord_ = kUnset;
};

template <typename C, typename Model>
void replay(C& c, Model& model, bool keyed, std::uint64_t seed) {
  support::Rng rng(seed);
  const auto fresh = [&](std::uint64_t hits) {
    return Rec{rng.uniform(0, 15), rng.uniform(0, 7), hits};
  };
  std::string op;
  const auto check = [&](std::uint64_t step) {
    ASSERT_EQ(c.size(), model.size()) << "step " << step << ": " << op;
    ASSERT_EQ(c.profile().counters(), model.counters())
        << "step " << step << ": " << op;
  };
  for (std::uint64_t step = 0; step < 2500; ++step) {
    const double roll = rng.next_double();
    const std::size_t n = c.size();
    if (roll < 0.25 || n == 0) {
      op = "push_back";
      const Rec r = fresh(step);
      c.push_back(r);
      model.push_back(r);
    } else if (roll < 0.37) {
      const std::size_t i = rng.uniform(0, n);
      op = "insert(" + std::to_string(i) + ")";
      const Rec r = fresh(step);
      c.insert(i, r);
      model.insert(i, r);
    } else if (roll < 0.47) {
      // A trie-like descent: ascending gets from 0, some overwritten.
      std::size_t i = 0;
      while (i < n) {
        op = "descent get(" + std::to_string(i) + ")";
        ASSERT_EQ(c.get(i), model.get(i)) << "step " << step << ": " << op;
        check(step);
        if (::testing::Test::HasFatalFailure()) return;
        if (rng.chance(0.3)) {
          op = "descent set(" + std::to_string(i) + ")";
          const Rec r = fresh(step);
          c.set(i, r);
          model.set(i, r);
          check(step);
          if (::testing::Test::HasFatalFailure()) return;
        }
        i += 1 + rng.uniform(0, n / 4);
      }
      op = "descent end";
    } else if (roll < 0.57) {
      const std::size_t i = rng.chance(0.5) ? n - 1 : rng.uniform(0, n - 1);
      op = "get(" + std::to_string(i) + ")";
      ASSERT_EQ(c.get(i), model.get(i)) << "step " << step << ": " << op;
    } else if (roll < 0.64) {
      const std::size_t i = rng.uniform(0, n - 1);
      op = "set(" + std::to_string(i) + ")";
      const Rec r = fresh(step);
      c.set(i, r);
      model.set(i, r);
    } else if (roll < 0.76) {
      // Often right after a get of the same position, so a roving walk
      // enters the chunk it erases from with no hop.
      const std::size_t i = rng.chance(0.2) ? 0 : rng.uniform(0, n - 1);
      if (rng.chance(0.5)) {
        op = "get(" + std::to_string(i) + ")";
        ASSERT_EQ(c.get(i), model.get(i)) << "step " << step << ": " << op;
        check(step);
        if (::testing::Test::HasFatalFailure()) return;
      }
      op = "erase(" + std::to_string(i) + ")";
      c.erase(i);
      model.erase(i);
    } else if (roll < 0.84) {
      const std::size_t stop = rng.uniform(0, n);
      op = "for_each(stop " + std::to_string(stop) + ")";
      std::vector<Rec> seen;
      c.for_each([&](std::size_t i, const Rec& r) {
        seen.push_back(r);
        return i < stop;
      });
      const std::size_t last = model.for_each_until(stop);
      const std::size_t visits = last == ddt::npos ? n : last + 1;
      ASSERT_EQ(seen.size(), visits) << "step " << step << ": " << op;
      for (std::size_t i = 0; i < visits; ++i) {
        ASSERT_EQ(seen[i], model.records()[i]) << "step " << step << ": " << op;
      }
    } else if (roll < 0.998) {
      if (!keyed) continue;
      const std::uint64_t key =
          rng.chance(0.6)
              ? rec_key(model.records()[rng.uniform(0, n - 1)])
              : rec_key(Rec{100 + rng.uniform(0, 9), 0, 0});
      op = "find_key";
      ASSERT_EQ(c.find_key(key), model.find_key(key))
          << "step " << step << ": " << op;
    } else {
      op = "clear";
      c.clear();
      model.clear();
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Replays one kind against a fresh model per (keyed, entry point).
template <typename Model>
void check_kind(ddt::DdtKind kind) {
  for (const bool keyed : {false, true}) {
    for (const bool visit : {false, true}) {
      SCOPED_TRACE(std::string(ddt::to_string(kind)) +
                   (keyed ? " keyed" : " unkeyed") +
                   (visit ? " via visit_container" : " via make_container"));
      const auto key_fn = keyed ? &rec_key : nullptr;
      const std::uint64_t seed = 0xc4a1 + static_cast<std::uint64_t>(kind);
      prof::MemoryProfile profile;
      Model model;
      if (visit) {
        ddt::visit_container<Rec>(kind, profile, key_fn, [&](auto& c) {
          replay(c, model, keyed, seed);
        });
      } else {
        auto c = ddt::make_container<Rec>(kind, profile, key_fn);
        replay(*c, model, keyed, seed);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

constexpr std::size_t kChunk = ddt::kDefaultChunkCapacity<Rec>;
constexpr std::size_t kLine = ddt::kUnrolledScanCapacity<Rec>;

TEST(ChunkedWalkOracle, SllOfArrays) {
  check_kind<ChunkedModel<false, false, kChunk, std::uint32_t, false>>(
      ddt::DdtKind::kSllOfArrays);
}

TEST(ChunkedWalkOracle, DllOfArrays) {
  check_kind<ChunkedModel<true, false, kChunk, std::uint32_t, false>>(
      ddt::DdtKind::kDllOfArrays);
}

TEST(ChunkedWalkOracle, SllOfArraysRoving) {
  check_kind<ChunkedModel<false, true, kChunk, std::uint32_t, false>>(
      ddt::DdtKind::kSllOfArraysRoving);
}

TEST(ChunkedWalkOracle, DllOfArraysRoving) {
  check_kind<ChunkedModel<true, true, kChunk, std::uint32_t, false>>(
      ddt::DdtKind::kDllOfArraysRoving);
}

TEST(ChunkedWalkOracle, UnrolledScan) {
  check_kind<ChunkedModel<false, false, kLine, std::uint16_t, true>>(
      ddt::DdtKind::kUnrolledScan);
}

}  // namespace
}  // namespace ddtr
