#include "apps/url/url_app.h"

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "ddt/factory.h"
#include "support/rng.h"

namespace ddtr::apps::url {

namespace {

// Pattern vocabulary overlapping the trace generator's URL vocabulary, so a
// realistic share of requests matches a non-default rule at varying scan
// depths.
constexpr const char* kPatternPool[] = {
    "cnn.com",     "dartmouth",  "example.org", "bbc.co.uk", "slashdot",
    "google",      "weather",    "amazon",      "akamai",    "nlanr",
    "/news/",      "/img/",      "/static/",    "/cgi/",     "/pages/",
    "/media/",     "/docs/",     "/api/",       "index.html", ".html",
    "story",       "view",       "item",        "photo",     "search",
    "?id=",        "http://www", "/news/img",   "/api/view", "photo?id=",
    "mail.",       "cdn."};

UrlPattern make_pattern(std::string_view text, std::uint16_t server) {
  UrlPattern p;
  const std::size_t n = std::min(text.size(), sizeof(p.pattern) - 1);
  std::memcpy(p.pattern, text.data(), n);
  p.length = static_cast<std::uint8_t>(n);
  p.server = server;
  return p;
}

}  // namespace

std::vector<std::uint32_t> UrlApp::first_matches(
    const net::Trace& trace) const {
  std::vector<std::uint32_t> first(trace.payload_count(), kNoMatch);
  for (std::uint32_t id = 0; id < first.size(); ++id) {
    const std::string& url = trace.payload(id);
    for (std::size_t i = 0; i < config_.pattern_count; ++i) {
      const UrlPattern p =
          make_pattern(kPatternPool[i % std::size(kPatternPool)], 0);
      if (url.find(std::string_view(p.pattern, p.length)) !=
          std::string::npos) {
        first[id] = static_cast<std::uint32_t>(i);
        break;
      }
    }
  }
  return first;
}

RunResult UrlApp::run(const net::Trace& trace,
                      const ddt::DdtCombination& combo) {
  prof::MemoryProfile pattern_profile("pattern_table");
  prof::MemoryProfile server_profile("server_table");
  prof::MemoryProfile cpu_profile("cpu");

  auto patterns = ddt::make_container<UrlPattern>(combo[0], pattern_profile);
  auto servers = ddt::make_container<ServerInfo>(combo[1], server_profile);

  support::Rng rng(config_.seed);
  for (std::size_t s = 0; s < config_.server_count; ++s) {
    ServerInfo server;
    server.ip = net::make_ip(192, 168, 10, static_cast<std::uint8_t>(s + 1));
    server.port = 8000 + static_cast<std::uint16_t>(s);
    servers->push_back(server);
  }
  for (std::size_t i = 0; i < config_.pattern_count; ++i) {
    const char* text = kPatternPool[i % std::size(kPatternPool)];
    const std::uint16_t server =
        static_cast<std::uint16_t>(rng.uniform(0, config_.server_count - 1));
    patterns->push_back(make_pattern(text, server));
  }

  const std::shared_ptr<const std::vector<std::uint32_t>> first =
      first_match_.get(
          trace, [this](const net::Trace& t) { return first_matches(t); });

  std::uint64_t dispatched = 0;
  std::uint64_t defaulted = 0;
  for (const net::PacketRecord& packet : trace.packets()) {
    cpu_profile.record_cpu_ops(8);  // TCP reassembly bookkeeping
    if (!trace.has_payload(packet)) continue;
    const std::size_t url_size = trace.payload(packet.payload_id).size();

    // The rule scan: visit rules front to back up to the first match (all
    // of them on a miss), paying the naive substring search's scan cost
    // per visited rule — the inner comparison loop of the NetBench url
    // kernel. The memo knows where it stops.
    const std::uint32_t match = (*first)[packet.payload_id];
    patterns->for_each([&](std::size_t i, const UrlPattern&) {
      cpu_profile.record_cpu_ops(url_size);  // scan cost proxy
      return i != match;
    });

    std::uint16_t server_index = 0;  // default server
    if (match != kNoMatch) {
      // Update rule statistics in place (read-modify-write at the matched
      // position; roving DDTs resume here for free).
      UrlPattern p = patterns->get(match);
      ++p.hits;
      patterns->set(match, p);
      server_index = p.server;
      ++dispatched;
    } else {
      ++defaulted;
    }

    ServerInfo server = servers->get(server_index);
    ++server.active_requests;
    server.bytes_routed += packet.length;
    servers->set(server_index, server);
    cpu_profile.record_cpu_ops(20);  // NAT rewrite + forward
  }

  dispatched_.store(dispatched, std::memory_order_relaxed);
  defaulted_.store(defaulted, std::memory_order_relaxed);

  RunResult result;
  result.per_structure.emplace_back("pattern_table",
                                    pattern_profile.counters());
  result.per_structure.emplace_back("server_table",
                                    server_profile.counters());
  result.total = pattern_profile.counters();
  result.total += server_profile.counters();
  result.total += cpu_profile.counters();
  return result;
}

}  // namespace ddtr::apps::url
