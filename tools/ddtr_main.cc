// ddtr — the command-line front end of the exploration framework, the
// counterpart of the paper's "fully automated tools" (§3.2/§3.3 tool
// support, Figure 2). Run `ddtr` without arguments for the subcommands
// and their flags: that text is generated from the command table below,
// the same table the parser, the flag validation and the dispatch read.
//
// `explore --app` accepts ANY workload in api::registry(). Every
// exploration writes a ResultLog that `pareto` can re-process later (the
// paper's "log files -> Perl post-processing" flow). `serve` keeps
// cache, traces and pool warm in a daemon that `submit` and `stats` talk
// to over a unix socket (src/serve/) and SIGTERM/SIGINT stops; `submit`
// prints the report `explore` prints (core::print_report). To have a
// result again, resubmit: the warm daemon replays it byte-identically.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "api/ddtr.h"
#include "core/persistent_cache.h"
#include "core/report.h"
#include "core/result_log.h"
#include "nettrace/generator.h"
#include "nettrace/parser.h"
#include "nettrace/presets.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/table.h"

namespace {

using namespace ddtr;

// --- The command table: types --------------------------------------------
// Every subcommand and every flag is declared once, in commands() below;
// the parser, the typed lookups, the dispatch in main() and the usage text
// all read that table. An unknown flag, a missing, malformed or
// out-of-range value, a stray positional or a missing required flag is a
// UsageError (exit 2) raised before the handler runs.

enum class FlagKind {
  kBool,    // takes no value and never consumes the next token
  kText,    // any string
  kCount,   // a non-negative integer, in [lo, hi] when hi > 0
  kNumber,  // a number in [lo, hi], or (lo, hi] when lo_open; never NaN
  kMetric,  // a metric name (energy::metric_index)
};

struct Flag {
  const char* name;
  FlagKind kind;
  const char* metavar;  // "" for kBool
  const char* help;
  bool required = false;
  double lo = 0.0, hi = 0.0;  // kNumber range; kCount range when hi > 0
  bool lo_open = false;
};

// One given flag: the token as typed plus its validated reading.
struct Value {
  std::string text;
  double number = 0.0;    // kNumber
  std::size_t index = 0;  // kCount value, kMetric index
};

struct CommandLine;

struct Command {
  const char* name;
  std::vector<const char*> positionals;  // metavars, all required
  const char* summary;
  int (*handler)(const CommandLine&);
  std::vector<Flag> flags;

  const Flag* find(std::string_view flag_name) const {
    for (const Flag& flag : flags) {
      if (flag_name == flag.name) return &flag;
    }
    return nullptr;
  }
};

// Command-line misuse; main() reports it with exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The parsed command line of one subcommand. Lookups are typed: they must
// name a flag the subcommand declares with that kind. A repeated flag
// reads as its first occurrence.
struct CommandLine {
  const Command& command;
  std::vector<std::pair<const Flag*, Value>> given;
  std::vector<std::string> positional;

  const Value* find(const char* name, FlagKind kind) const {
    const Flag* declared = command.find(name);
    if (declared == nullptr || declared->kind != kind) {
      throw std::logic_error(std::string("ddtr ") + command.name +
                             " reads undeclared flag --" + name);
    }
    for (const auto& [flag, value] : given) {
      if (flag == declared) return &value;
    }
    return nullptr;
  }
  template <typename T>
  std::optional<T> get(const char* name, FlagKind kind,
                       T Value::*field) const {
    const Value* value = find(name, kind);
    return value ? std::optional<T>(value->*field) : std::nullopt;
  }
  bool flag(const char* name) const {
    return find(name, FlagKind::kBool) != nullptr;
  }
  std::optional<std::string> text(const char* name) const {
    return get(name, FlagKind::kText, &Value::text);
  }
  std::optional<std::size_t> count(const char* name) const {
    return get(name, FlagKind::kCount, &Value::index);
  }
  std::optional<double> number(const char* name) const {
    return get(name, FlagKind::kNumber, &Value::number);
  }
  std::optional<std::size_t> metric(const char* name) const {
    return get(name, FlagKind::kMetric, &Value::index);
  }
};

// Usage text and errors list the single sources of truth — the workload
// registry and energy::kMetricNames — so they cannot drift from the code.
template <typename Names>
std::string join(const Names& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

// Writes `path` through `write(stream)`. A file that cannot be opened or
// written is an error (main() prints "error: cannot write PATH", exit 1).
template <typename Write>
void write_file(const std::string& path, Write write) {
  std::ofstream os(path);
  write(os);
  os.close();
  if (os.fail()) throw std::runtime_error("cannot write " + path);
}

// Writes a --trace file last, after every other output, so a trace that
// cannot be written costs nothing else (and still exits 1).
void write_trace(const obs::TraceWriter& tracer, const std::string& path) {
  write_file(path, [&](std::ostream& os) { tracer.write(os); });
  std::cerr << "wrote " << tracer.event_count() << " trace events to "
            << path << '\n';
}

// --- Handlers ---------------------------------------------------------------

int cmd_apps(const CommandLine&) {
  support::TextTable table({"name", "description"});
  for (const std::string& name : api::registry().names()) {
    table.add_row({name, api::registry().info(name).description});
  }
  table.print(std::cout);
  std::cout << "\nexplore any of them: ddtr explore --app NAME\n";
  return 0;
}

// ddtr ddts — the DDT library as the explorer sees it, generated from the
// same kind table that drives name parsing (ddt/kinds.cc).
int cmd_ddts(const CommandLine&) {
  support::TextTable table({"name", "description"});
  for (ddt::DdtKind kind : ddt::kAllDdtKinds) {
    table.add_row({std::string(ddt::to_string(kind)),
                   std::string(ddt::describe(kind))});
  }
  table.print(std::cout);
  std::cout << '\n'
            << ddt::kAllDdtKinds.size()
            << " kinds; HASH is offered on keyed slots only "
            << "(accounting v" << ddt::kDdtAccountingVersion << ")\n";
  return 0;
}

int cmd_presets(const CommandLine&) {
  support::TextTable table({"name", "nodes", "rate_pps", "burstiness",
                            "mtu", "http", "description"});
  for (const net::NetworkPreset& p : net::all_network_presets()) {
    table.add_row({p.name, std::to_string(p.node_count),
                   support::format_double(p.mean_rate_pps, 0),
                   support::format_double(p.burstiness, 1),
                   std::to_string(p.mtu),
                   support::format_percent(p.http_fraction, 0),
                   p.description});
  }
  table.print(std::cout);
  return 0;
}

int cmd_tracegen(const CommandLine& args) {
  net::TraceGenerator::Options options;
  options.packet_count = args.count("packets").value_or(options.packet_count);
  options.seed_offset = args.count("seed-offset").value_or(options.seed_offset);
  const net::Trace trace = net::TraceGenerator::generate(
      net::network_preset(*args.text("preset")), options);
  if (const auto out = args.text("out")) {
    write_file(*out, [&](std::ostream& os) { trace.save(os); });
    std::cout << "wrote " << trace.size() << " packets to " << *out << '\n';
  } else {
    trace.save(std::cout);
  }
  return 0;
}

int cmd_traceparse(const CommandLine& args) {
  const std::string& path = args.positional[0];
  std::ifstream is(path);
  if (!is) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  const net::Trace trace = net::Trace::load(is);
  const net::NetworkParams params = net::TraceParser::extract(trace);
  support::TextTable table({"parameter", "value"});
  table.add_row({"trace", params.trace_name});
  table.add_row({"packets", std::to_string(params.packet_count)});
  table.add_row({"duration_s", support::format_double(params.duration_s, 3)});
  table.add_row({"nodes", std::to_string(params.node_count)});
  table.add_row({"flows", std::to_string(params.flow_count)});
  table.add_row(
      {"throughput_bps", support::format_double(params.throughput_bps, 0)});
  table.add_row({"mean_packet_B",
                 support::format_double(params.mean_packet_bytes, 1)});
  table.add_row({"max_packet_B", std::to_string(params.max_packet_bytes)});
  table.add_row({"http_fraction",
                 support::format_percent(params.http_fraction)});
  table.add_row({"udp_fraction",
                 support::format_percent(params.udp_fraction)});
  table.print(std::cout);
  return 0;
}

int cmd_explore(const CommandLine& args) {
  const std::string app = *args.text("app");
  if (!api::registry().contains(app)) {
    throw UsageError("explore: unknown app '" + app + "' (registered: " +
                     join(api::registry().names()) + ")");
  }
  const auto log_path = args.text("log");
  const auto csv_prefix = args.text("csv");
  const auto cache_dir = args.text("cache-dir");
  const auto trace_path = args.text("trace");

  // Span tracing is observational only: the report (and the warm-cache
  // byte-identity guarantee) is unaffected by --trace.
  std::optional<obs::TraceWriter> tracer;
  if (trace_path) tracer.emplace();
  obs::TraceWriter* const sink = tracer ? &*tracer : nullptr;
  // Set-up (trace synthesis and hashing, app construction) is one span:
  // nettrace may not include obs, so it has no per-trace spans.
  core::CaseStudy study = [&] {
    obs::SpanScope span(sink, "study.build", "setup");
    span.arg("app", app);
    return api::registry().make_study(
        app, core::CaseStudyOptions{}.scaled(
                 args.number("scale").value_or(0.25)));
  }();
  api::Exploration session(std::move(study));
  session.trace_sink(sink);
  if (const auto jobs = args.count("jobs")) session.jobs(*jobs);
  if (const auto cap = args.number("survivor-cap")) session.survivor_cap(*cap);
  if (cache_dir) session.cache_dir(*cache_dir);
  if (args.flag("greedy")) {
    session.step1_policy(core::Step1Policy::kGreedyPerSlot);
  }

  const core::ExplorationReport& report = session.run();
  core::print_report(std::cout, report, cache_dir.value_or(""));

  if (log_path) {
    write_file(*log_path, [&](std::ostream& os) {
      os << report.serialized_records();
    });
    std::cout << "\nwrote "
              << report.step1_records.size() + report.step2_records.size()
              << " records to " << *log_path << '\n';
  }
  if (csv_prefix) {
    write_file(*csv_prefix + "_records.csv", [&](std::ostream& os) {
      core::write_records_csv(os, report.step2_records);
    });
    write_file(*csv_prefix + "_time_energy.csv", [&](std::ostream& os) {
      core::write_pareto_csv(os, report.step2_records, 1, 0);
    });
    write_file(*csv_prefix + "_accesses_footprint.csv",
               [&](std::ostream& os) {
                 core::write_pareto_csv(os, report.step2_records, 2, 3);
               });
    std::cout << "wrote " << *csv_prefix << "_{records,time_energy,"
              << "accesses_footprint}.csv\n";
  }
  if (tracer) write_trace(*tracer, *trace_path);
  return 0;
}

// ddtr cache <stats|verify|clear> DIR — inspection and maintenance of a
// persistent-cache directory's one cache file.
int cmd_cache(const CommandLine& args) {
  const std::string& op = args.positional[0];
  const std::string& dir = args.positional[1];

  if (op == "stats") {
    const core::CacheInspection stats = core::inspect_cache(dir);
    support::TextTable table({"property", "value"});
    table.add_row({"directory", dir});
    table.add_row({"file", stats.present ? "present" : "absent"});
    table.add_row({"bytes", support::format_bytes(stats.bytes)});
    table.add_row({"entries", std::to_string(stats.entries)});
    table.add_row({"duplicates", std::to_string(stats.duplicates)});
    table.add_row({"corrupt entries", std::to_string(stats.corrupt)});
    table.print(std::cout);
    if (!stats.apps.empty()) {
      std::cout << '\n';
      support::TextTable apps({"workload", "entries"});
      for (const auto& [name, count] : stats.apps) {
        apps.add_row({name, std::to_string(count)});
      }
      apps.print(std::cout);
    }
    if (!stats.model_fingerprints.empty()) {
      std::cout << '\n';
      support::TextTable models({"model fingerprint", "entries"});
      for (const auto& [fingerprint, count] : stats.model_fingerprints) {
        models.add_row({fingerprint, std::to_string(count)});
      }
      models.print(std::cout);
    }
    return 0;
  }

  if (op == "verify") {
    const std::string path = core::PersistentSimulationCache(dir).file_path();
    const core::CacheInspection check = core::inspect_cache(dir);
    support::TextTable table({"file", "header", "entries", "corrupt",
                              "torn tail bytes"});
    if (!check.present) {
      table.add_row({path, "absent", "-", "-", "-"});
    } else if (check.empty) {
      // Zero-length: the scar of a crash before the first write —
      // tolerated, rewritten by the next store.
      table.add_row({path, "empty", "0", "0", "0"});
    } else {
      table.add_row({path, check.header_valid ? "ok" : "INVALID",
                     std::to_string(check.entries + check.duplicates),
                     std::to_string(check.corrupt),
                     std::to_string(check.trailing_bytes)});
    }
    table.print(std::cout);
    std::cout << (check.ok() ? "cache verify: OK\n"
                             : "cache verify: CORRUPT\n");
    return check.ok() ? 0 : 1;
  }

  if (op == "clear") {
    const bool removed = core::clear_cache(dir);
    std::cout << "removed " << (removed ? 1 : 0) << " cache file"
              << (removed ? "" : "s") << " from " << dir << '\n';
    return 0;
  }

  throw UsageError("cache: unknown cache operation '" + op +
                   "' (stats|verify|clear)");
}

int cmd_pareto(const CommandLine& args) {
  const std::string log_path = *args.text("log");
  std::ifstream is(log_path);
  if (!is) {
    std::cerr << "cannot open " << log_path << '\n';
    return 1;
  }
  core::ResultLog log = core::ResultLog::load(is);
  std::vector<core::SimulationRecord> records = log.records();
  if (const auto app = args.text("app")) {
    records = log.for_app(*app);
    if (records.empty()) {
      std::vector<std::string> held;
      for (const auto& r : log.records()) {
        if (std::ranges::find(held, r.app_name) == held.end()) {
          held.push_back(r.app_name);
        }
      }
      std::cerr << "pareto: no record of app '" << *app << "' in "
                << log_path << " (it holds:";
      for (const std::string& name : held) std::cerr << ' ' << name;
      std::cerr << (held.empty() ? " no records)\n" : ")\n");
      return 1;
    }
  }

  // Default: time vs energy.
  const std::size_t mx = args.metric("x").value_or(1);
  const std::size_t my = args.metric("y").value_or(0);
  std::vector<energy::Metrics> points;
  for (const auto& r : records) points.push_back(r.metrics);
  const auto front = core::pareto_front_2d(points, mx, my);
  support::TextTable table({"combination", "network", "config",
                            energy::kMetricNames[mx],
                            energy::kMetricNames[my]});
  for (std::size_t idx : front) {
    const auto v = points[idx].as_array();
    table.add_row({records[idx].combo.label(), records[idx].network,
                   records[idx].config, support::format_double(v[mx], 6),
                   support::format_double(v[my], 6)});
  }
  table.print(std::cout);
  std::cout << front.size() << " Pareto-optimal points out of "
            << records.size() << " records\n";
  return 0;
}

// --- serve: the long-lived exploration daemon and its client -----------

// The running daemon, for the signal handlers. request_stop() is an
// atomic store and a write(2) to the daemon's wake pipe (errno kept), so
// calling it from a handler is safe; the pointer itself is atomic for the
// same reason.
std::atomic<serve::Server*> g_serve_server{nullptr};

void on_serve_signal(int) {
  if (serve::Server* server = g_serve_server.load()) server->request_stop();
}

int cmd_serve(const CommandLine& args) {
  serve::ServerOptions options;
  options.socket_path = *args.text("socket");
  options.cache_dir = args.text("cache-dir").value_or("");
  options.jobs = args.count("jobs").value_or(options.jobs);
  options.log = &std::cout;
  const auto trace_path = args.text("trace");
  std::optional<obs::TraceWriter> tracer;
  if (trace_path) {
    tracer.emplace();
    options.trace = &*tracer;
  }

  serve::Server server(options);
  server.start();
  // Drain on SIGTERM/SIGINT: the running job finishes (storing its
  // records into the cache file), queued jobs are dropped, connections
  // close and the socket file is removed.
  g_serve_server.store(&server);
  std::signal(SIGTERM, on_serve_signal);
  std::signal(SIGINT, on_serve_signal);
  server.serve_forever();
  g_serve_server.store(nullptr);
  if (tracer) write_trace(*tracer, *trace_path);
  return 0;
}

int cmd_submit(const CommandLine& args) {
  serve::SubmitRequest request;
  request.app = *args.text("app");
  request.scale = args.number("scale").value_or(request.scale);
  request.packets = args.count("packets").value_or(0);
  request.seed_offset = args.count("seed-offset").value_or(0);
  request.greedy = args.flag("greedy") ? 1 : 0;
  request.survivor_cap = args.number("survivor-cap").value_or(0.0);

  serve::Client client(*args.text("socket"));
  const serve::ResultFrame result = client.submit(request);
  std::cout << "job " << result.job_id << " (" << result.app << "):\n"
            << result.report;
  if (const auto log_path = args.text("log")) {
    write_file(*log_path, [&](std::ostream& os) { os << result.records; });
    std::cout << "wrote result records to " << *log_path << '\n';
  }
  return 0;
}

// ddtr stats — live introspection of a running daemon: uptime, cache
// behavior since boot, and the full job lifecycle table.
int cmd_stats(const CommandLine& args) {
  serve::Client client(*args.text("socket"));
  const serve::StatsReply reply = client.stats();
  const std::uint64_t hit_total = reply.cache_hits + reply.cache_misses;
  const double hit_rate =
      hit_total == 0 ? 0.0
                     : static_cast<double>(reply.cache_hits) /
                           static_cast<double>(hit_total);
  support::TextTable table({"property", "value"});
  table.add_row({"uptime_s",
                 support::format_double(
                     static_cast<double>(reply.uptime_ms) / 1000.0, 3)});
  table.add_row({"warm records", std::to_string(reply.warm_entries)});
  table.add_row({"warm traces", std::to_string(reply.warm_traces)});
  table.add_row({"sessions served", std::to_string(reply.sessions_served)});
  table.add_row({"cache hits (boot)", std::to_string(reply.cache_hits)});
  table.add_row({"cache misses (boot)", std::to_string(reply.cache_misses)});
  table.add_row({"cache hit rate", support::format_percent(hit_rate)});
  table.add_row({"jobs submitted", std::to_string(reply.jobs_submitted)});
  table.print(std::cout);
  if (!reply.jobs.empty()) {
    std::cout << '\n';
    support::TextTable jobs({"job", "app", "state", "last executed",
                             "submit_ms", "start_ms", "finish_ms"});
    for (const serve::JobStats& job : reply.jobs) {
      jobs.add_row({std::to_string(job.id), job.app, job.state,
                    std::to_string(job.last_executed),
                    std::to_string(job.submit_ms),
                    std::to_string(job.start_ms),
                    std::to_string(job.finish_ms)});
    }
    jobs.print(std::cout);
  }
  return 0;
}

// ddtr tracecheck FILE — the CI-facing validator for --trace output:
// strict JSON, the trace_event document shape, and balanced begin/end
// spans per (pid, tid). Exit 1 with a one-line diagnostic on any defect.
int cmd_tracecheck(const CommandLine& args) {
  const std::string& path = args.positional[0];
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  std::ostringstream content;
  content << is.rdbuf();
  const std::string problem = obs::check_trace(content.str());
  if (!problem.empty()) {
    std::cerr << "tracecheck: " << path << ": " << problem << '\n';
    return 1;
  }
  std::cout << "tracecheck: " << path << ": OK\n";
  return 0;
}

// --- The command table ------------------------------------------------------

std::vector<Flag> operator+(std::vector<Flag> a, const std::vector<Flag>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<Command>& commands() {
  using K = FlagKind;
  const Flag socket{"socket", K::kText, "PATH", "the daemon's unix socket",
                    true};
  // The study knobs `explore` and `submit` share; the bounds are serve's,
  // which serve::Server::validate() enforces on every submission too.
  const std::vector<Flag> study = {
      {"app", K::kText, "A", "registered workload, see apps below", true},
      {"scale", K::kNumber, "S", "trace-length scale (default 0.25)", false,
       0.0, serve::kMaxScale, true},
      {"greedy", K::kBool, "", "per-slot greedy step 1 (fewer simulations)"},
      {"survivor-cap", K::kNumber, "F",
       "fraction of combinations step 1 keeps", false, 0.0,
       serve::kMaxSurvivorCap, true},
      {"log", K::kText, "FILE", "write the run's result records to FILE"},
  };
  static const std::vector<Command> table = {
      {"apps", {}, "list the registered workloads", cmd_apps, {}},
      {"ddts", {}, "list the DDT library (the lattice axes)", cmd_ddts, {}},
      {"presets", {}, "list the synthetic network presets", cmd_presets, {}},
      {"tracegen", {}, "generate a synthetic trace", cmd_tracegen,
       {{"preset", K::kText, "NAME", "network preset, see presets", true},
        {"packets", K::kCount, "N", "packets to generate"},
        {"seed-offset", K::kCount, "K", "generator seed offset"},
        {"out", K::kText, "FILE", "write the trace to FILE, not stdout"}}},
      {"traceparse", {"FILE"}, "extract the network parameters of a trace",
       cmd_traceparse, {}},
      {"explore", {}, "the 3-step methodology", cmd_explore,
       study + std::vector<Flag>{
           {"jobs", K::kCount, "N",
            "lanes (default 1; 0 = one per hardware thread)"},
           {"cache-dir", K::kText, "DIR",
            "persistent simulation cache (warm reruns replay)"},
           {"csv", K::kText, "PREFIX",
            "write step-2 records and fronts to PREFIX_*.csv"},
           {"trace", K::kText, "FILE",
            "write a Chrome trace_event span timeline"}}},
      {"pareto", {}, "2-D Pareto front of a result log", cmd_pareto,
       {{"log", K::kText, "FILE", "result log to read", true},
        {"app", K::kText, "NAME", "only this workload's records"},
        {"x", K::kMetric, "METRIC", "x axis (default time_s)"},
        {"y", K::kMetric, "METRIC", "y axis (default energy_mJ)"}}},
      {"cache", {"OP", "DIR"},
       "maintain a cache dir: OP is stats|verify|clear", cmd_cache, {}},
      {"serve", {}, "long-lived daemon; SIGTERM/SIGINT drains and stops it",
       cmd_serve,
       {socket,
        {"cache-dir", K::kText, "DIR",
         "persistent cache, loaded once, stored into per run"},
        {"jobs", K::kCount, "N",
         "shared pool lanes (0 = one per hardware thread)"},
        {"trace", K::kText, "FILE",
         "span timeline written on clean shutdown"}}},
      {"submit", {}, "submit a study to the daemon and print its result",
       cmd_submit,
       std::vector<Flag>{socket} + study +
           std::vector<Flag>{
               {"packets", K::kCount, "N", "override every trace length",
                false, 0.0, static_cast<double>(serve::kMaxPackets)},
               {"seed-offset", K::kCount, "K", "trace seed offset"}}},
      {"stats", {},
       "live daemon introspection: uptime, cache counters, job times",
       cmd_stats, {socket}},
      {"tracecheck", {"FILE"},
       "validate a --trace file (strict JSON, balanced spans)",
       cmd_tracecheck, {}},
  };
  return table;
}

// --- Usage text and parser, both read off the table -------------------------

bool ranged(const Flag& flag) {
  return flag.kind == FlagKind::kNumber ||
         (flag.kind == FlagKind::kCount && flag.hi > 0.0);
}

std::string format_range(const Flag& flag) {
  std::ostringstream os;
  os.precision(10);  // a count bound such as 1000000 prints in full
  os << (flag.lo_open ? '(' : '[') << flag.lo << ',' << flag.hi << ']';
  return os.str();
}

// "ddtr explore [flags]" and its summary, then one line per flag.
void print_usage(const Command& command) {
  std::cerr << "  ddtr " << command.name;
  for (const char* positional : command.positionals) {
    std::cerr << ' ' << positional;
  }
  std::cerr << (command.flags.empty() ? "" : " [flags]") << "\n      "
            << command.summary << '\n';
  for (const Flag& flag : command.flags) {
    std::string syntax = std::string("--") + flag.name;
    if (flag.kind != FlagKind::kBool) syntax.append(" ").append(flag.metavar);
    syntax.resize(std::max<std::size_t>(syntax.size(), 20), ' ');
    std::cerr << "      " << syntax << ' ' << flag.help
              << (flag.required ? " (required)" : "")
              << (ranged(flag) ? "; in " + format_range(flag) : "")
              << '\n';
  }
}

int usage() {
  std::cerr << "usage:\n";
  for (const Command& command : commands()) print_usage(command);
  std::cerr << "apps: " << join(api::registry().names()) << '\n'
            << "metrics: " << join(energy::kMetricNames)
            << " (the unit suffix may be dropped)\n";
  return 2;
}

std::optional<std::size_t> to_count(std::string_view token) {
  std::size_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

// Reads `token` as the value of `flag`, or throws a UsageError naming the
// subcommand, the flag and the token.
Value read_value(const Command& command, const Flag& flag,
                 const std::string& token) {
  const auto bad = [&](const std::string& expected) {
    return UsageError(std::string(command.name) + ": flag --" + flag.name +
                      " expects " + expected + ", got '" + token + "'");
  };
  Value value{token};
  switch (flag.kind) {
    case FlagKind::kBool:
    case FlagKind::kText:
      break;
    case FlagKind::kCount: {
      const auto count = to_count(token);
      if (!ranged(flag)) {
        if (!count) throw bad("a non-negative integer");
      } else if (!count || static_cast<double>(*count) < flag.lo ||
                 static_cast<double>(*count) > flag.hi) {
        throw bad("a count in " + format_range(flag));
      }
      value.index = *count;
      break;
    }
    case FlagKind::kNumber: {
      const char* end = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(token.data(), end, value.number);
      const double v = value.number;
      if (ec != std::errc{} || ptr != end || v > flag.hi ||
          !(flag.lo_open ? v > flag.lo : v >= flag.lo)) {
        throw bad("a number in " + format_range(flag));
      }
      break;
    }
    case FlagKind::kMetric: {
      const auto index = energy::metric_index(token);
      if (!index) throw bad("a metric (" + join(energy::kMetricNames) + ")");
      value.index = *index;
      break;
    }
  }
  return value;
}

CommandLine parse_args(const Command& command, int argc, char** argv) {
  CommandLine args{command, {}, {}};
  const std::string prefix = std::string(command.name) + ": ";
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const Flag* flag = command.find(std::string_view(token).substr(2));
    if (flag == nullptr) throw UsageError(prefix + "unknown flag " + token);
    Value value;
    if (flag->kind != FlagKind::kBool) {
      if (i + 1 == argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
        throw UsageError(prefix + "flag " + token + " requires a value");
      }
      value = read_value(command, *flag, argv[++i]);
    }
    args.given.emplace_back(flag, std::move(value));
  }
  const std::size_t expected = command.positionals.size();
  if (args.positional.size() > expected) {
    throw UsageError(prefix + "unexpected argument '" +
                     args.positional[expected] + "'");
  }
  if (args.positional.size() < expected) {
    throw UsageError(prefix + "missing " +
                     command.positionals[args.positional.size()]);
  }
  for (const Flag& flag : command.flags) {
    if (flag.required && args.find(flag.name, flag.kind) == nullptr) {
      throw UsageError(prefix + "missing required flag --" + flag.name);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto& table = commands();
  const auto command =
      std::find_if(table.begin(), table.end(), [&](const Command& c) {
        return std::string_view(argv[1]) == c.name;
      });
  if (command == table.end()) {
    std::cerr << "error: unknown command '" << argv[1] << "'\n";
    return usage();
  }
  try {
    return command->handler(parse_args(*command, argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\nusage:\n";
    print_usage(*command);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
