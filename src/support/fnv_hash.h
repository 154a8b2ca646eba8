// Incremental 64-bit FNV-1a hashing — the content-identity primitive of
// the caching layers — and a word-wise hash for bulk bytes. Cache keys
// must be *content* keys, not label keys: two traces (or model
// configurations) that share a name but differ in a single byte must
// hash apart, across runs and across processes. FNV-1a over explicitly
// little-endian fixed-width encodings gives a stable, platform-independent
// 64-bit digest with no dependencies.
//
// Multi-field digests feed each field through a width-tagged method
// (u8/u16/u32/u64/f64/str); strings are length-prefixed so field
// boundaries cannot alias ("ab"+"c" never hashes like "a"+"bc").
//
// FNV-1a is one serial multiply per byte. Where bulk bytes dominate
// (Trace::content_hash's packets, the serve frames' payload checksum),
// WordLanes takes 64-bit words on four independent lanes instead.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace ddtr::support {

class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  Fnv1a64& bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= kPrime;
    }
    return *this;
  }

  Fnv1a64& u8(std::uint8_t v) noexcept { return bytes(&v, 1); }
  Fnv1a64& u16(std::uint16_t v) noexcept { return little_endian(v, 2); }
  Fnv1a64& u32(std::uint32_t v) noexcept { return little_endian(v, 4); }
  Fnv1a64& u64(std::uint64_t v) noexcept { return little_endian(v, 8); }

  // Hashes the IEEE-754 bit pattern, so values that compare equal but
  // differ in representation (-0.0 vs 0.0) hash apart — exactly what a
  // content key wants: the serialized forms differ too.
  Fnv1a64& f64(double v) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }

  Fnv1a64& str(std::string_view s) noexcept {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const noexcept { return hash_; }

 private:
  Fnv1a64& little_endian(std::uint64_t v, int width) noexcept {
    unsigned char buf[8];
    for (int i = 0; i < width; ++i) {
      buf[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    return bytes(buf, static_cast<std::size_t>(width));
  }

  std::uint64_t hash_ = kOffsetBasis;
};

inline std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  return Fnv1a64().bytes(data, size).digest();
}

// splitmix64-style finalizer: spreads a 64-bit key over all output bits.
// Used to turn record keys into open-addressing probe starts, where the
// low bits must depend on every input bit (FNV's low bits alone do not).
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Four multiply-xorshift lanes fed 64-bit words side by side, so the
// lanes' chains overlap instead of forming one serial chain over every
// byte.
class WordLanes {
 public:
  static constexpr std::size_t kLanes = 4;

  WordLanes() noexcept {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lane_[j] = mix64(Fnv1a64::kOffsetBasis + j);
    }
  }

  // One step of lane `j`: xor the word in, multiply by an odd constant,
  // fold the high half down. Each part is a bijection of the lane for a
  // fixed word and of the word for a fixed lane, so a word that differs
  // changes its lane, and a lane that differs once differs to the end.
  void step(std::size_t j, std::uint64_t word) noexcept {
    const std::uint64_t x = (lane_[j] ^ word) * 0x9fb21c651e98df25ull;
    lane_[j] = x ^ (x >> 32);
  }

  // Nested so the digest is a bijection of each lane while the others
  // are fixed.
  std::uint64_t digest() const noexcept {
    std::uint64_t digest = 0;
    for (std::size_t j = kLanes; j-- > 0;) digest = mix64(lane_[j] ^ digest);
    return digest;
  }

 private:
  std::uint64_t lane_[kLanes] = {};
};

// The little-endian 64-bit word at `p`, on any host.
inline std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  }
  return v;
}

// Word-wise 64-bit hash of a byte buffer: its little-endian words feed
// the lanes round-robin, then the 0-7 tail bytes (as one little-endian
// word) and the length fold in with mix64. Every step is a bijection of
// what changed, so a change confined to one word — any single flipped
// byte — always changes the digest.
inline std::uint64_t word_hash64(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::size_t kBlock = 8 * WordLanes::kLanes;
  WordLanes lanes;
  std::size_t i = 0;
  for (; i + kBlock <= size; i += kBlock) {
    for (std::size_t j = 0; j < WordLanes::kLanes; ++j) {
      lanes.step(j, load_le64(p + i + 8 * j));
    }
  }
  for (std::size_t j = 0; i + 8 <= size; i += 8, ++j) {
    lanes.step(j, load_le64(p + i));
  }
  std::uint64_t tail = 0;
  for (std::size_t k = 0; i + k < size; ++k) {
    tail |= std::uint64_t{p[i + k]} << (8 * k);
  }
  return mix64(mix64(lanes.digest() ^ tail) ^ size);
}

}  // namespace ddtr::support

