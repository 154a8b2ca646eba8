// Seeded damage to a serialized stream, for the readers' corruption
// sweeps: one mutation per call, drawn from `rng` — byte flips, a
// truncation, an inserted digit or an inserted '-' (the last two turn a
// field into a too-large or negative number without breaking the
// token structure).
#pragma once

#include <cstdint>
#include <string>

#include "support/rng.h"

namespace ddtr::test_support {

inline constexpr std::uint64_t kMutationKinds = 4;

// Returns `bytes` (non-empty) damaged by mutation `kind` (0: byte flips,
// 1: truncation, 2: inserted digit, 3: inserted '-').
inline std::string corrupt_bytes(std::string bytes, std::uint64_t kind,
                                 support::Rng& rng) {
  const auto position = [&] {
    return static_cast<std::size_t>(rng.uniform(0, bytes.size() - 1));
  };
  switch (kind) {
    case 0: {
      const std::uint64_t flips = rng.uniform(1, 4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::size_t pos = position();
        bytes[pos] = static_cast<char>(bytes[pos] ^ rng.uniform(1, 255));
      }
      break;
    }
    case 1:
      bytes.resize(position());
      break;
    case 2:
      bytes.insert(position(), 1, static_cast<char>('0' + rng.uniform(0, 9)));
      break;
    default:
      bytes.insert(position(), 1, '-');
      break;
  }
  return bytes;
}

}  // namespace ddtr::test_support
