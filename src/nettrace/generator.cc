#include "nettrace/generator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "support/rng.h"

namespace ddtr::net {

namespace {

using support::Rng;
using support::ZipfSampler;

// One bidirectional transport flow; packets are drawn from a Zipf
// distribution over these so that per-flow state (DRR queues, firewall
// connection entries) sees realistic reuse.
struct Flow {
  std::uint32_t src_ip;
  std::uint32_t dst_ip;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint8_t protocol;
  bool http;
};

// Each network lives in its own /16 inside 10.0.0.0/8 (derived from the
// preset seed), so different networks present genuinely different address
// populations — routing-table shapes and rule matches then differ per
// network, as they would across real sites.
std::uint32_t node_ip(std::size_t node, std::uint64_t network_seed) {
  const auto site = static_cast<std::uint8_t>(network_seed * 131 % 200);
  return make_ip(10, site, static_cast<std::uint8_t>((node >> 8) & 0xff),
                 static_cast<std::uint8_t>(node & 0xff));
}

constexpr std::uint16_t kServicePorts[] = {443, 53, 22, 25, 8080, 554, 110};

// Synthesizes a table of plausible URLs with Zipf-style popularity handled
// by the caller. Word lists keep the strings readable in saved traces.
std::vector<std::string> make_url_table(Rng& rng, std::size_t count) {
  static constexpr const char* kHosts[] = {
      "www.cnn.com",      "www.dartmouth.edu", "mail.example.org",
      "news.bbc.co.uk",   "www.slashdot.org",  "images.google.com",
      "www.weather.gov",  "www.amazon.com",    "cdn.akamai.net",
      "www.nlanr.net"};
  static constexpr const char* kDirs[] = {"news",  "img",   "static", "cgi",
                                          "pages", "media", "docs",   "api"};
  static constexpr const char* kFiles[] = {"index.html", "story", "view",
                                           "item",       "photo", "search"};
  std::vector<std::string> urls;
  urls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string url = "http://";
    url += kHosts[rng.uniform(0, std::size(kHosts) - 1)];
    const std::size_t depth = rng.uniform(1, 3);
    for (std::size_t d = 0; d < depth; ++d) {
      url += '/';
      url += kDirs[rng.uniform(0, std::size(kDirs) - 1)];
    }
    url += '/';
    url += kFiles[rng.uniform(0, std::size(kFiles) - 1)];
    if (rng.chance(0.3)) {
      url += "?id=" + std::to_string(rng.uniform(1, 9999));
    }
    urls.push_back(std::move(url));
  }
  return urls;
}

std::uint16_t sample_length(const NetworkPreset& preset, Rng& rng) {
  if (rng.chance(preset.mtu_fraction)) {
    return static_cast<std::uint16_t>(preset.mtu - rng.uniform(0, 40));
  }
  if (rng.chance(0.55)) {
    const double v = rng.normal(preset.small_mean, preset.small_mean / 3.0);
    return static_cast<std::uint16_t>(std::clamp(v, 40.0, 400.0));
  }
  return static_cast<std::uint16_t>(rng.uniform(100, 900));
}

}  // namespace

Trace TraceGenerator::generate(const NetworkPreset& preset) {
  return generate(preset, Options{});
}

Trace TraceGenerator::generate(const NetworkPreset& preset,
                               const Options& options) {
  Rng rng(preset.seed * 0x9e3779b1ULL + options.seed_offset);
  std::string trace_name = preset.name;
  if (options.seed_offset != 0) {
    trace_name += '#';
    trace_name += std::to_string(options.seed_offset);
  }
  Trace trace(trace_name);
  trace.reserve(options.packet_count);

  // Flow population: a few flows per node, clamped to keep small presets
  // meaningful and big ones tractable.
  const std::size_t flow_count =
      std::clamp<std::size_t>(preset.node_count * 3, 32, 2048);
  ZipfSampler node_sampler(preset.node_count, preset.zipf_skew);
  std::vector<Flow> flows;
  flows.reserve(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    Flow flow;
    flow.src_ip = node_ip(node_sampler.sample(rng), preset.seed);
    std::uint32_t dst = node_ip(node_sampler.sample(rng), preset.seed);
    if (dst == flow.src_ip) dst ^= 1;  // no self-talk
    flow.dst_ip = dst;
    flow.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    flow.http = rng.chance(preset.http_fraction);
    if (flow.http) {
      flow.protocol = kProtoTcp;
      flow.dst_port = rng.chance(0.85) ? 80 : 8080;
    } else {
      flow.protocol = rng.chance(preset.udp_fraction) ? kProtoUdp : kProtoTcp;
      flow.dst_port =
          kServicePorts[rng.uniform(0, std::size(kServicePorts) - 1)];
    }
    flows.push_back(flow);
  }
  ZipfSampler flow_sampler(flow_count, preset.zipf_skew);

  // URL table with skewed popularity for the HTTP request payloads.
  const std::vector<std::string> urls = make_url_table(rng, 160);
  std::vector<std::uint32_t> url_ids(urls.size(), kNoPayload);
  ZipfSampler url_sampler(urls.size(), 0.9);

  // Bursty arrivals: a two-state (on/off) modulated Poisson process.
  bool burst_on = false;
  double now = 0.0;
  for (std::size_t i = 0; i < options.packet_count; ++i) {
    if (rng.chance(0.01)) burst_on = !burst_on;
    const double rate = burst_on ? preset.mean_rate_pps * preset.burstiness
                                 : preset.mean_rate_pps / preset.burstiness;
    now += rng.exponential(rate);

    const Flow& flow = flows[flow_sampler.sample(rng)];
    PacketRecord p;
    p.timestamp_s = now;
    // Roughly a third of packets travel in the reverse direction (ACKs,
    // responses).
    const bool reverse = rng.chance(0.35);
    p.src_ip = reverse ? flow.dst_ip : flow.src_ip;
    p.dst_ip = reverse ? flow.src_ip : flow.dst_ip;
    p.src_port = reverse ? flow.dst_port : flow.src_port;
    p.dst_port = reverse ? flow.src_port : flow.dst_port;
    p.protocol = flow.protocol;
    p.length = sample_length(preset, rng);
    if (flow.http && !reverse && rng.chance(0.5)) {
      const std::size_t url_index = url_sampler.sample(rng);
      if (url_ids[url_index] == kNoPayload) {
        url_ids[url_index] = trace.add_payload(urls[url_index]);
      }
      p.payload_id = url_ids[url_index];
      p.length = std::max<std::uint16_t>(
          p.length, static_cast<std::uint16_t>(urls[url_index].size() + 60));
    }
    trace.add_packet(p);
  }
  return trace;
}

}  // namespace ddtr::net
