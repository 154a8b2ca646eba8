// Canonical 64-bit five-tuple key used by the keyed dominant-structure
// slots (IPchains connection table, DRR flow table). Both the packet side
// and the stored-record side must derive keys identically, so the helper
// lives here rather than in either app. Key equality stands in for
// five-tuple equality: a 64-bit digest collision between two distinct live
// tuples is negligible, and since every container derives keys the same
// way, any collision would still resolve deterministically.
#pragma once

#include <cstdint>

#include "support/fnv_hash.h"

namespace ddtr::apps {

// Packs the tuple into two words and finalizes with mix64 — a handful of
// instructions instead of a byte-wise FNV loop. The containers derive a
// stored record's key once per write into their host-side key column, and
// every packet derives one for its lookup, so this stays on the hot path.
inline std::uint64_t five_tuple_key(std::uint32_t src_ip,
                                    std::uint32_t dst_ip,
                                    std::uint16_t src_port,
                                    std::uint16_t dst_port,
                                    std::uint8_t protocol) noexcept {
  const std::uint64_t addrs =
      (static_cast<std::uint64_t>(src_ip) << 32) | dst_ip;
  const std::uint64_t rest = (static_cast<std::uint64_t>(src_port) << 24) |
                             (static_cast<std::uint64_t>(dst_port) << 8) |
                             protocol;
  return support::mix64(addrs ^ support::mix64(rest));
}

// CPU ops charged for deriving a packet's five-tuple key (per packet, on
// the application's cpu profile — the stored-record side is charged by the
// containers via kKeyHashCpuOps, per record a modeled scan visits, whether
// or not the host re-derives it).
inline constexpr std::uint64_t kFiveTupleKeyCpuOps = 6;

}  // namespace ddtr::apps

