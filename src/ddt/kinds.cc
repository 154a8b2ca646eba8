#include "ddt/kinds.h"

#include <algorithm>

namespace ddtr::ddt {
namespace {

// Single source of truth for kind metadata: to_string, parse_ddt_kind,
// describe and the `ddtr ddts` listing are all generated from this table,
// so a new enumerator cannot silently desync name parsing — the
// static_asserts below refuse to compile until the table and
// kAllDdtKinds both cover it exactly once.
struct KindRow {
  DdtKind kind;
  std::string_view name;
  std::string_view description;
};

constexpr std::array<KindRow, kAllDdtKinds.size()> kKindTable = {{
    {DdtKind::kArray, "AR",
     "contiguous resizable array; O(1) index, O(n) middle edit"},
    {DdtKind::kArrayOfPointers, "AR(P)",
     "array of pointers to heap records; cheap moves, per-record header"},
    {DdtKind::kSll, "SLL",
     "singly linked list; cheap front edits, linear walks"},
    {DdtKind::kDll, "DLL",
     "doubly linked list; walks from the nearer end"},
    {DdtKind::kSllRoving, "SLL(O)",
     "SLL with roving pointer; sequential access resumes in O(1)"},
    {DdtKind::kDllRoving, "DLL(O)",
     "DLL with roving pointer; bidirectional O(1) resume"},
    {DdtKind::kSllOfArrays, "SLL(AR)",
     "unrolled SLL of record chunks; amortized pointers and hops"},
    {DdtKind::kDllOfArrays, "DLL(AR)",
     "unrolled DLL of record chunks; nearer-end chunk walks"},
    {DdtKind::kSllOfArraysRoving, "SLL(ARO)",
     "unrolled SLL with roving chunk cache"},
    {DdtKind::kDllOfArraysRoving, "DLL(ARO)",
     "unrolled DLL with roving chunk cache"},
    {DdtKind::kOpenHash, "HASH",
     "dense array + open-addressing key index; O(1) keyed lookup"},
    {DdtKind::kUnrolledScan, "UNR",
     "cache-line-sized chunks; line-granular, vectorizable scans"},
}};

constexpr bool table_covers_all_kinds_exactly_once() {
  for (DdtKind kind : kAllDdtKinds) {
    int hits = 0;
    for (const KindRow& row : kKindTable) {
      if (row.kind == kind) ++hits;
    }
    if (hits != 1) return false;
  }
  return true;
}

constexpr bool table_names_are_distinct() {
  for (std::size_t i = 0; i < kKindTable.size(); ++i) {
    for (std::size_t j = i + 1; j < kKindTable.size(); ++j) {
      if (kKindTable[i].name == kKindTable[j].name) return false;
    }
  }
  return true;
}

static_assert(table_covers_all_kinds_exactly_once(),
              "every DdtKind enumerator must appear exactly once in "
              "kKindTable (and in kAllDdtKinds)");
static_assert(table_names_are_distinct(),
              "DdtKind short names must be unique for parse_ddt_kind");

const KindRow& row_for(DdtKind kind) noexcept {
  for (const KindRow& row : kKindTable) {
    if (row.kind == kind) return row;
  }
  return kKindTable[0];  // unreachable: the static_assert covers all kinds
}

}  // namespace

std::string_view to_string(DdtKind kind) noexcept {
  return row_for(kind).name;
}

std::string_view describe(DdtKind kind) noexcept {
  return row_for(kind).description;
}

std::optional<DdtKind> parse_ddt_kind(std::string_view name) noexcept {
  for (const KindRow& row : kKindTable) {
    if (row.name == name) return row.kind;
  }
  return std::nullopt;
}

std::vector<DdtKind> default_slot_kinds() {
  std::vector<DdtKind> kinds;
  kinds.reserve(kAllDdtKinds.size() - 1);
  for (DdtKind kind : kAllDdtKinds) {
    if (kind != DdtKind::kOpenHash) kinds.push_back(kind);
  }
  return kinds;
}

std::vector<DdtKind> keyed_slot_kinds() {
  return {kAllDdtKinds.begin(), kAllDdtKinds.end()};
}

std::string DdtCombination::label() const {
  std::string out;
  append_label(out);
  return out;
}

void DdtCombination::append_label(std::string& out) const {
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (i != 0) out.push_back('+');
    out += to_string(kinds_[i]);
  }
}

std::optional<DdtCombination> parse_combination(std::string_view label) {
  std::vector<DdtKind> kinds;
  while (!label.empty()) {
    const std::size_t plus = label.find('+');
    const auto kind = parse_ddt_kind(label.substr(0, plus));
    if (!kind) return std::nullopt;
    kinds.push_back(*kind);
    if (plus == std::string_view::npos) break;
    label.remove_prefix(plus + 1);
    if (label.empty()) return std::nullopt;  // trailing '+'
  }
  return DdtCombination(std::move(kinds));
}

std::vector<DdtCombination> enumerate_combinations(std::size_t slots) {
  return enumerate_combinations(std::vector<std::vector<DdtKind>>(
      slots, {kAllDdtKinds.begin(), kAllDdtKinds.end()}));
}

std::vector<DdtCombination> enumerate_combinations(
    const std::vector<std::vector<DdtKind>>& slot_kinds) {
  std::vector<DdtCombination> out;
  const std::size_t slots = slot_kinds.size();
  if (slots == 0) return out;
  std::size_t total = 1;
  for (const auto& set : slot_kinds) {
    if (set.empty()) return out;
    total *= set.size();
  }
  out.reserve(total);
  std::vector<std::size_t> digits(slots, 0);
  for (std::size_t n = 0; n < total; ++n) {
    std::vector<DdtKind> kinds(slots);
    std::size_t rem = n;
    // Most-significant digit first so that the first slot varies slowest.
    for (std::size_t i = slots; i-- > 0;) {
      digits[i] = rem % slot_kinds[i].size();
      rem /= slot_kinds[i].size();
    }
    for (std::size_t i = 0; i < slots; ++i) {
      kinds[i] = slot_kinds[i][digits[i]];
    }
    out.emplace_back(std::move(kinds));
  }
  return out;
}

}  // namespace ddtr::ddt
