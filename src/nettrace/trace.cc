#include "nettrace/trace.h"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/fnv_hash.h"

namespace ddtr::net {

std::uint32_t make_ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t d) noexcept {
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | d;
}

Trace::Trace(const Trace& other)
    : name_(other.name_),
      packets_(other.packets_),
      payloads_(other.payloads_),
      content_hash_(other.content_hash_.load(std::memory_order_relaxed)) {}

Trace& Trace::operator=(const Trace& other) {
  if (this != &other) {
    name_ = other.name_;
    packets_ = other.packets_;
    payloads_ = other.payloads_;
    content_hash_.store(other.content_hash_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
  return *this;
}

Trace::Trace(Trace&& other) noexcept
    : name_(std::move(other.name_)),
      packets_(std::move(other.packets_)),
      payloads_(std::move(other.payloads_)),
      content_hash_(other.content_hash_.load(std::memory_order_relaxed)) {
  // The moved-from trace is empty now; its old digest must not outlive
  // the content it described.
  other.content_hash_.store(0, std::memory_order_relaxed);
}

Trace& Trace::operator=(Trace&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    packets_ = std::move(other.packets_);
    payloads_ = std::move(other.payloads_);
    content_hash_.store(other.content_hash_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    other.content_hash_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

std::uint32_t Trace::add_payload(std::string payload) {
  payloads_.push_back(std::move(payload));
  content_hash_.store(0, std::memory_order_relaxed);
  return static_cast<std::uint32_t>(payloads_.size() - 1);
}

std::uint64_t Trace::content_hash() const noexcept {
  std::uint64_t cached = content_hash_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  support::Fnv1a64 h;
  h.str(name_);
  h.u64(payloads_.size());
  for (const std::string& payload : payloads_) h.str(payload);
  h.u64(packets_.size());
  for (const PacketRecord& p : packets_) {
    h.f64(p.timestamp_s)
        .u32(p.src_ip)
        .u32(p.dst_ip)
        .u16(p.src_port)
        .u16(p.dst_port)
        .u8(p.protocol)
        .u16(p.length)
        .u32(p.payload_id);
  }
  std::uint64_t digest = h.digest();
  // 0 is the "not computed" sentinel; remap the (astronomically unlikely)
  // zero digest to keep the contract that content_hash() is never 0.
  if (digest == 0) digest = support::Fnv1a64::kOffsetBasis;
  // Racing computations store the same value; relaxed is enough.
  content_hash_.store(digest, std::memory_order_relaxed);
  return digest;
}

const std::string& Trace::payload(std::uint32_t payload_id) const {
  static const std::string kEmpty;
  if (payload_id == kNoPayload || payload_id >= payloads_.size()) {
    return kEmpty;
  }
  return payloads_[payload_id];
}

double Trace::duration_s() const noexcept {
  if (packets_.empty()) return 0.0;
  return packets_.back().timestamp_s - packets_.front().timestamp_s;
}

void Trace::save(std::ostream& os) const {
  // max_digits10 makes the timestamp text exact: a saved trace must
  // reload to the same content (and content_hash) it was saved with —
  // the default 6-digit precision silently rounded timestamps. Restored
  // below: the caller's stream formatting is not ours to keep.
  const std::streamsize saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "ddtr-trace 1 " << name_ << '\n';
  os << "payloads " << payloads_.size() << '\n';
  for (std::size_t i = 0; i < payloads_.size(); ++i) {
    os << "p " << i << ' ' << payloads_[i] << '\n';
  }
  os << "packets " << packets_.size() << '\n';
  for (const PacketRecord& p : packets_) {
    os << p.timestamp_s << ' ' << p.src_ip << ' ' << p.dst_ip << ' '
       << p.src_port << ' ' << p.dst_port << ' '
       << static_cast<unsigned>(p.protocol) << ' ' << p.length << ' '
       << p.payload_id << '\n';
  }
  os.precision(saved_precision);
}

namespace {

// Extracts one unsigned packet field. operator>> takes "-5" as its modular
// wrap (4294967291 for a uint32_t), so a leading minus is refused here.
template <typename U>
void read_unsigned(std::istream& is, std::size_t packet, const char* field,
                   U& out) {
  is >> std::ws;
  if (is.peek() == '-') {
    throw std::runtime_error("packet " + std::to_string(packet) +
                             ": negative " + field);
  }
  is >> out;
}

}  // namespace

Trace Trace::load(std::istream& is) {
  std::string magic;
  int version = 0;
  std::string name;
  is >> magic >> version;
  std::getline(is, name);
  if (magic != "ddtr-trace" || version != 1) {
    throw std::runtime_error("not a ddtr trace stream");
  }
  if (!name.empty() && name.front() == ' ') name.erase(0, 1);
  Trace trace(name);

  std::string tag;
  std::size_t payload_count = 0;
  is >> tag >> payload_count;
  if (tag != "payloads") throw std::runtime_error("bad payload section");
  for (std::size_t i = 0; i < payload_count; ++i) {
    std::string marker;
    std::size_t id = 0;
    std::string value;
    is >> marker >> id >> value;
    if (marker != "p" || id != i) {
      throw std::runtime_error("bad payload entry");
    }
    trace.add_payload(std::move(value));
  }

  std::size_t packet_count = 0;
  is >> tag >> packet_count;
  if (tag != "packets") throw std::runtime_error("bad packet section");
  for (std::size_t i = 0; i < packet_count; ++i) {
    PacketRecord p;
    unsigned protocol = 0;
    is >> p.timestamp_s;
    read_unsigned(is, i, "src_ip", p.src_ip);
    read_unsigned(is, i, "dst_ip", p.dst_ip);
    read_unsigned(is, i, "src_port", p.src_port);
    read_unsigned(is, i, "dst_port", p.dst_port);
    read_unsigned(is, i, "protocol", protocol);
    read_unsigned(is, i, "length", p.length);
    read_unsigned(is, i, "payload_id", p.payload_id);
    if (!is) {
      throw std::runtime_error("packet " + std::to_string(i) +
                               ": truncated or out-of-range field");
    }
    if (protocol > 0xFF) {
      throw std::runtime_error("packet " + std::to_string(i) + ": protocol " +
                               std::to_string(protocol) + " exceeds 255");
    }
    p.protocol = static_cast<std::uint8_t>(protocol);
    trace.add_packet(p);
  }
  return trace;
}

}  // namespace ddtr::net
