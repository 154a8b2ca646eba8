// Synthetic trace generator. Produces flow-structured, Zipf-skewed,
// bursty packet traces from a NetworkPreset, deterministically from the
// preset seed — the stand-in for replaying NLANR / Dartmouth captures
// (README, *Explore from the command line*, records the substitution).
#pragma once

#include <cstdint>

#include "nettrace/presets.h"
#include "nettrace/trace.h"

namespace ddtr::net {

class TraceGenerator {
 public:
  struct Options {
    std::size_t packet_count = 20000;
    // Extra seed material so several distinct traces can be drawn from one
    // preset (the paper uses 10 traces from 8 networks).
    std::uint64_t seed_offset = 0;
  };

  // Generates `options.packet_count` packets following the preset's
  // arrival, popularity, size and protocol models.
  static Trace generate(const NetworkPreset& preset);
  static Trace generate(const NetworkPreset& preset, const Options& options);
};

}  // namespace ddtr::net

