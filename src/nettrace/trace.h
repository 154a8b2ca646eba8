// A network trace: packets plus a payload string table, with text
// serialization so generated traces can be inspected, stored and re-parsed
// — standing in for the NLANR / Dartmouth capture files of the paper.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nettrace/packet.h"

namespace ddtr::net {

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  // The hash cache is value state: copies carry the already-computed
  // digest, and the atomic member would otherwise delete these.
  Trace(const Trace& other);
  Trace& operator=(const Trace& other);
  Trace(Trace&& other) noexcept;
  Trace& operator=(Trace&& other) noexcept;

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) {
    name_ = std::move(name);
    content_hash_.store(0, std::memory_order_relaxed);
  }

  const std::vector<PacketRecord>& packets() const noexcept {
    return packets_;
  }
  std::size_t size() const noexcept { return packets_.size(); }
  bool empty() const noexcept { return packets_.empty(); }
  // Capacity for `packets` records, so a builder that knows its length
  // appends without regrowing the packet array.
  void reserve(std::size_t packets) { packets_.reserve(packets); }

  void add_packet(const PacketRecord& packet) {
    packets_.push_back(packet);
    content_hash_.store(0, std::memory_order_relaxed);
  }

  // Interns a payload string; returns its payload id.
  std::uint32_t add_payload(std::string payload);

  // Payload for a packet, or empty view when the packet carries none.
  const std::string& payload(std::uint32_t payload_id) const;
  bool has_payload(const PacketRecord& p) const noexcept {
    return p.payload_id != kNoPayload && p.payload_id < payloads_.size();
  }
  std::size_t payload_count() const noexcept { return payloads_.size(); }

  double duration_s() const noexcept;

  // Stable 64-bit digest of the full trace content — name, payload table
  // and every packet field — the *content identity* the caching layers key
  // on (never the trace's label: two traces may share a name yet differ in
  // content, and cache entries outlive the process that wrote them).
  // The name and payloads go through length-prefixed FNV-1a; the packets
  // are hashed word-wise: each record packs into four 64-bit words (field
  // values, never raw struct bytes, which hold padding), and word j of
  // every packet feeds lane j of four multiply-xorshift chains. Each step
  // is a bijection of the lane state, so changing any one field of one
  // packet always changes the digest. Computed once and cached; safe to
  // call concurrently on a shared immutable trace (the cache slot is
  // atomic and the digest idempotent). Never returns 0, so 0 can serve as
  // an "unhashed" sentinel.
  std::uint64_t content_hash() const noexcept;

  // Text serialization: a header line, one "payload <id> <string>" line per
  // payload, then one packet per line.
  void save(std::ostream& os) const;
  static Trace load(std::istream& is);

 private:
  std::string name_;
  std::vector<PacketRecord> packets_;
  std::vector<std::string> payloads_;
  // 0 = not computed yet; mutators reset it.
  mutable std::atomic<std::uint64_t> content_hash_{0};
};

}  // namespace ddtr::net

