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

std::vector<UrlPattern> UrlApp::rule_table() const {
  std::vector<UrlPattern> rules;
  support::Rng rng(config_.seed);
  for (std::size_t i = 0; i < config_.pattern_count; ++i) {
    const char* text = kPatternPool[i % std::size(kPatternPool)];
    const std::uint16_t server =
        static_cast<std::uint16_t>(rng.uniform(0, config_.server_count - 1));
    rules.push_back(make_pattern(text, server));
  }
  return rules;
}

UrlApp::ScanPlan UrlApp::build_plan(const net::Trace& trace) const {
  const std::vector<UrlPattern> rules = rule_table();
  ScanPlan plan;
  plan.first_match.assign(trace.payload_count(), kNoMatch);
  plan.packets.assign(trace.payload_count(), 0);
  for (std::uint32_t id = 0; id < plan.first_match.size(); ++id) {
    const std::string& url = trace.payload(id);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (url.find(std::string_view(rules[i].pattern, rules[i].length)) !=
          std::string::npos) {
        plan.first_match[id] = static_cast<std::uint32_t>(i);
        break;
      }
    }
  }
  for (const net::PacketRecord& packet : trace.packets()) {
    plan.cpu_ops += 8;  // TCP reassembly bookkeeping
    if (!trace.has_payload(packet)) continue;
    ++plan.packets[packet.payload_id];
    // The rule scan pays the naive substring search's cost per visited
    // rule (the inner comparison loop of the NetBench url kernel): up to
    // the first match, every rule on a miss.
    const std::uint32_t match = plan.first_match[packet.payload_id];
    const std::uint64_t visited =
        match == kNoMatch ? rules.size() : match + std::uint64_t{1};
    plan.cpu_ops += visited * trace.payload(packet.payload_id).size();
    plan.cpu_ops += 20;  // NAT rewrite + forward
  }
  return plan;
}

RunResult UrlApp::run(const net::Trace& trace,
                      const ddt::DdtCombination& combo) {
  prof::MemoryProfile pattern_profile("pattern_table");
  prof::MemoryProfile server_profile("server_table");
  prof::MemoryProfile cpu_profile("cpu");

  auto patterns = ddt::make_container<UrlPattern>(combo[0], pattern_profile);
  auto servers = ddt::make_container<ServerInfo>(combo[1], server_profile);

  for (std::size_t s = 0; s < config_.server_count; ++s) {
    ServerInfo server;
    server.ip = net::make_ip(192, 168, 10, static_cast<std::uint8_t>(s + 1));
    server.port = 8000 + static_cast<std::uint16_t>(s);
    servers->push_back(server);
  }
  for (const UrlPattern& rule : rule_table()) patterns->push_back(rule);

  const std::shared_ptr<const ScanPlan> plan = plan_.get(
      trace, [this](const net::Trace& t) { return build_plan(t); });

  // One rule scan per distinct payload, charged for every packet that
  // carries it: visit rules front to back up to the first match (all of
  // them on a miss), then update the matched rule's statistics in place
  // (read-modify-write at the matched position; roving DDTs resume there
  // for free). Exact on every kind: for_each starts at the head and leaves
  // a roving cursor on the last rule it visits.
  std::vector<std::uint16_t> server_of(plan->packets.size(), 0);
  std::uint64_t dispatched = 0;
  std::uint64_t defaulted = 0;
  for (std::uint32_t id = 0; id < plan->packets.size(); ++id) {
    const std::uint32_t packets = plan->packets[id];
    if (packets == 0) continue;
    const std::uint32_t match = plan->first_match[id];
    const prof::ProfileCounters before = pattern_profile.counters();
    patterns->for_each(
        [match](std::size_t i, const UrlPattern&) { return i != match; });
    if (match != kNoMatch) {
      UrlPattern p = patterns->get(match);
      p.hits += packets;
      patterns->set(match, p);
      server_of[id] = p.server;
      dispatched += packets;
    } else {
      defaulted += packets;  // default server 0
    }
    pattern_profile.repeat_since(before, packets - 1);
  }
  cpu_profile.record_cpu_ops(plan->cpu_ops);

  // The server table stays per request, in trace order: its roving kinds
  // resume from the previous request's server.
  for (const net::PacketRecord& packet : trace.packets()) {
    if (!trace.has_payload(packet)) continue;
    const std::uint16_t server_index = server_of[packet.payload_id];
    ServerInfo server = servers->get(server_index);
    ++server.active_requests;
    server.bytes_routed += packet.length;
    servers->set(server_index, server);
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
