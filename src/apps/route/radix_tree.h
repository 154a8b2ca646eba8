// DDT-backed IPv4 routing table: a binary radix trie (radix-2, one bit per
// level, as in the BSD radix code NetBench's route kernel is built on,
// without path compression) whose node pool and route-entry pool live in
// exchangeable DDT containers. Node references are indices into the node
// container, so the cost of walking the trie is exactly the cost the chosen
// DDT charges for indexed access — the mechanism that makes the Route case
// study's exploration space interesting.
//
// Nodes are only ever appended (routes are not withdrawn during a replay),
// so indices are stable and every child index is larger than its parent's —
// a descent touches monotonically increasing indices, which is why roving-
// pointer DDTs do well here.
//
// The tree is a template over its node container: RadixTree<> walks any
// kind through the virtual ddt::Container<RadixNode> interface, while a
// concrete container class (see ddt::visit_container) makes every node
// access a static, inlinable call. Any class with the same size / empty /
// push_back / get / set members works, which is how RouteApp records a
// lookup's descent once per trace.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "ddt/container.h"
#include "profiling/memory_profile.h"

namespace ddtr::apps::route {

// Trie node; -1 child / entry means absent. 12 bytes.
struct RadixNode {
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t entry = -1;
};

// A routing-table entry (the rtentry of the paper's Route case study).
struct RouteEntry {
  std::uint32_t prefix = 0;
  std::uint8_t prefix_len = 0;
  std::uint32_t next_hop = 0;
  std::uint16_t interface = 0;
  std::uint32_t use_count = 0;  // per-route hit counter, updated on match
};

template <typename Nodes = ddt::Container<RadixNode>>
class RadixTree {
 public:
  // Containers and the CPU-op profile are borrowed; the tree creates its
  // root node eagerly.
  RadixTree(Nodes& nodes, ddt::Container<RouteEntry>& entries,
            prof::MemoryProfile& cpu)
      : nodes_(nodes), entries_(entries), cpu_(cpu) {
    assert(nodes_.empty() && entries_.empty());
    nodes_.push_back(RadixNode{});  // root at index 0
  }

  // Inserts (or replaces) a route for prefix/prefix_len.
  void insert(std::uint32_t prefix, std::uint8_t prefix_len,
              std::uint32_t next_hop, std::uint16_t interface) {
    assert(prefix_len <= 32);
    std::size_t cur = 0;
    for (std::uint8_t depth = 0; depth < prefix_len; ++depth) {
      RadixNode node = nodes_.get(cur);
      const bool bit = bit_at(prefix, depth);
      cpu_.record_cpu_ops(3);  // shift + mask + branch
      std::int32_t child = bit ? node.right : node.left;
      if (child < 0) {
        child = static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back(RadixNode{});
        if (bit) {
          node.right = child;
        } else {
          node.left = child;
        }
        nodes_.set(cur, node);
      }
      cur = static_cast<std::size_t>(child);
    }
    RadixNode node = nodes_.get(cur);
    RouteEntry entry{prefix, prefix_len, next_hop, interface, 0};
    if (node.entry >= 0) {
      // Replace the existing route in place.
      entries_.set(static_cast<std::size_t>(node.entry), entry);
    } else {
      node.entry = static_cast<std::int32_t>(entries_.size());
      entries_.push_back(entry);
      nodes_.set(cur, node);
    }
  }

  // Longest-prefix-match lookup. Increments the matched entry's use_count.
  std::optional<RouteEntry> lookup(std::uint32_t dst_ip) {
    return use_entry(descend(dst_ip));
  }

  // The trie walk of lookup(): reads every node on dst_ip's path and
  // returns the entry index of the longest matching prefix, or -1.
  std::int32_t descend(std::uint32_t dst_ip) {
    std::size_t cur = 0;
    std::int32_t best_entry = -1;
    for (std::uint8_t depth = 0; depth <= 32; ++depth) {
      const RadixNode node = nodes_.get(cur);
      if (node.entry >= 0) best_entry = node.entry;
      if (depth == 32) break;
      const bool bit = bit_at(dst_ip, depth);
      cpu_.record_cpu_ops(4);  // shift + mask + compare + branch
      const std::int32_t child = bit ? node.right : node.left;
      if (child < 0) break;
      cur = static_cast<std::size_t>(child);
    }
    return best_entry;
  }

  // The match half of lookup(): adds `uses` to entry `index`'s use_count
  // (one get and one set whatever `uses` is) and returns the entry, or
  // nullopt when `index` is -1 (no match).
  std::optional<RouteEntry> use_entry(std::int32_t index,
                                      std::uint32_t uses = 1) {
    if (index < 0) return std::nullopt;
    RouteEntry entry = entries_.get(static_cast<std::size_t>(index));
    entry.use_count += uses;
    entries_.set(static_cast<std::size_t>(index), entry);
    cpu_.record_cpu_ops(2);
    return entry;
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t route_count() const { return entries_.size(); }

 private:
  static bool bit_at(std::uint32_t value, std::uint8_t depth) {
    return (value >> (31 - depth)) & 1u;
  }

  Nodes& nodes_;
  ddt::Container<RouteEntry>& entries_;
  prof::MemoryProfile& cpu_;
};

}  // namespace ddtr::apps::route
