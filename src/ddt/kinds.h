// The dynamic data types of the DDT library: the paper's ten kinds
// (paper §3.1, library of [9]) — arrays, linked lists, roving-pointer
// lists and unrolled ("array chunk") lists, in singly- and doubly-linked
// flavours — plus two cache-conscious additions layered on the arena
// allocator: an open-addressing hash index (HASH) and a cache-line-sized
// unrolled list with a vectorizable membership scan (UNR).
//
// The twelve kinds are instantiations of four class templates, as the
// paper builds its library from a few layouts: ArrayContainer (AR, and
// HASH as its Indexed flavour), ArrayOfPointersContainer (AR(P)),
// ListContainer (the four plain lists) and ChunkedListContainer (the four
// unrolled lists, and UNR as its line-scan flavour). ddt/factory.h maps
// each kind to its instantiation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ddtr::ddt {

// Version of the DDT access-accounting model. Any change to how the
// containers charge reads/writes/allocations (constants, arena pool,
// new kinds that alter the lattice) must bump this: it feeds every app's
// cache_version(), so persistent simulation caches never mix numbers
// produced under different accounting semantics.
//  v1: per-node heap accounting, 10-kind lattice.
//  v2: arena-backed pools (chunk-granular footprint), HASH/UNR kinds,
//      keyed lookups (find_key).
//  v3: per-node heap policy removed; arena charges exactly as v2.
// ddtr-accounting-begin (accounting version + kind lattice)
inline constexpr std::uint32_t kDdtAccountingVersion = 3;

enum class DdtKind : std::uint8_t {
  kArray,               // AR: contiguous resizable array of records
  kArrayOfPointers,     // AR(P): array of pointers to heap records
  kSll,                 // SLL: singly linked list
  kDll,                 // DLL: doubly linked list
  kSllRoving,           // SLL(O): SLL with roving pointer
  kDllRoving,           // DLL(O): DLL with roving pointer
  kSllOfArrays,         // SLL(AR): unrolled singly linked list
  kDllOfArrays,         // DLL(AR): unrolled doubly linked list
  kSllOfArraysRoving,   // SLL(ARO): unrolled SLL with roving pointer
  kDllOfArraysRoving,   // DLL(ARO): unrolled DLL with roving pointer
  kOpenHash,            // HASH: array + open-addressing key index
  kUnrolledScan,        // UNR: cache-line chunks, vectorizable scan
};

inline constexpr std::array<DdtKind, 12> kAllDdtKinds = {
    DdtKind::kArray,          DdtKind::kArrayOfPointers,
    DdtKind::kSll,            DdtKind::kDll,
    DdtKind::kSllRoving,      DdtKind::kDllRoving,
    DdtKind::kSllOfArrays,    DdtKind::kDllOfArrays,
    DdtKind::kSllOfArraysRoving, DdtKind::kDllOfArraysRoving,
    DdtKind::kOpenHash,       DdtKind::kUnrolledScan,
};
// ddtr-accounting-end

// Canonical short name, e.g. "AR(P)", "HASH" or "DLL(ARO)".
std::string_view to_string(DdtKind kind) noexcept;

// One-line human description, e.g. for `ddtr ddts`.
std::string_view describe(DdtKind kind) noexcept;

// Inverse of to_string; nullopt for unknown names.
std::optional<DdtKind> parse_ddt_kind(std::string_view name) noexcept;

// The kinds legal for an arbitrary (unkeyed) dominant-structure slot:
// every kind except kOpenHash, whose key index only pays off — and whose
// find_key only works — when the slot's records carry a key function.
std::vector<DdtKind> default_slot_kinds();

// The kinds legal for a slot whose application supplies a record key
// function (all of them, including kOpenHash).
std::vector<DdtKind> keyed_slot_kinds();

// A choice of DDT implementation for each dominant data structure of an
// application — one point of the step-1 exploration space.
class DdtCombination {
 public:
  DdtCombination() = default;
  explicit DdtCombination(std::vector<DdtKind> kinds)
      : kinds_(std::move(kinds)) {}

  std::size_t size() const noexcept { return kinds_.size(); }
  DdtKind operator[](std::size_t i) const { return kinds_.at(i); }
  const std::vector<DdtKind>& kinds() const noexcept { return kinds_; }

  // "AR+DLL" style label used in logs and Pareto charts.
  std::string label() const;

  bool operator==(const DdtCombination&) const = default;

 private:
  std::vector<DdtKind> kinds_;
};

// The full factorial space: all |kAllDdtKinds|^slots combinations, in a
// deterministic lexicographic order (first slot varies slowest).
std::vector<DdtCombination> enumerate_combinations(std::size_t slots);

// Per-slot factorial space: the cartesian product of one kind set per
// slot, in the same deterministic order. This is what the explorer
// enumerates once applications declare which slots are keyed.
std::vector<DdtCombination> enumerate_combinations(
    const std::vector<std::vector<DdtKind>>& slot_kinds);

}  // namespace ddtr::ddt

