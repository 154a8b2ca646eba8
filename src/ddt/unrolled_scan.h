// UNR — cache-line-sized unrolled list with a vectorizable membership
// scan: the line-scan instantiation of ChunkedListContainer
// (ddt/chunked_list.h). Chunks are sized so their record payload fits one
// 64-byte cache line, which changes the accounting unit for traversal: a
// scan touches each chunk's payload as ONE line-wide read (plus header and
// link), not one read per record, and the per-record key comparison inside
// a chunk is charged as streaming SIMD work instead of serially dependent
// touches. The chunk header is a 16-bit count. Positional edits are
// SLL(AR)'s (shift within the chunk, split on full, unlink on empty);
// chunks come from the arena pool, so churn recycles lines instead of
// calling the allocator.
//
// This is the shape of the related-work unrolled lists built for clique
// enumeration: linear membership scans over packed lines beat both
// pointer-chasing lists (hop per record) and big-array scans (no early
// exit granularity) when the set is small-to-medium and scanned often.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "ddt/chunked_list.h"

namespace ddtr::ddt {

// One cache line of record payload per chunk (at least two records).
// ddtr-accounting-begin (cache-line geometry: footprint + scan cost)
inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
inline constexpr std::size_t kUnrolledScanCapacity =
    std::max<std::size_t>(2, kCacheLineBytes / sizeof(T));
// ddtr-accounting-end

template <typename T>
using UnrolledScanContainer =
    ChunkedListContainer<T, /*Doubly=*/false, /*Roving=*/false,
                         kUnrolledScanCapacity<T>, std::uint16_t,
                         /*LineScan=*/true>;

}  // namespace ddtr::ddt
