// ddtr — the command-line front end of the exploration framework, the
// counterpart of the paper's "fully automated tools" (§3.2/§3.3 tool
// support, Figure 2). Subcommands:
//
//   ddtr apps                             list the registered workloads
//   ddtr presets                          list the synthetic network presets
//   ddtr tracegen  --preset P [...]       generate a trace file
//   ddtr traceparse FILE                  extract network parameters
//   ddtr explore   --app A [...]          run the 3-step methodology
//   ddtr pareto    --log FILE [...]       post-process a result log
//   ddtr lint      [PATH ...]             project-invariant static analysis
//   ddtr cache     OP DIR                 inspect/maintain a cache dir
//   ddtr serve     --socket PATH [...]    long-lived exploration daemon
//   ddtr submit    --socket PATH --app A  submit a study to the daemon
//   ddtr status    --socket PATH          the daemon's job table
//   ddtr stats     --socket PATH          live daemon introspection
//   ddtr results   --socket PATH --job I  re-fetch a job's last result
//   ddtr shutdown  --socket PATH          drain the daemon and exit
//   ddtr tracecheck FILE                  validate a --trace output file
//
// `explore --app` accepts ANY workload in api::registry() — the four paper
// studies are just the built-in registrations. Every exploration writes a
// ResultLog that `pareto` can re-process later (the paper's "log files ->
// Perl post-processing" flow).
//
// Distributed exploration (see src/dist/): `explore --shard I/N` runs one
// worker of an N-way sharded exploration (simulates only its stable
// subset, stores into a private cache segment — SIGTERM checkpoints and
// exits); `explore --workers N` is the single-machine coordinator: it
// fork/execs itself as N shard workers, merges their segments, then
// replays the merged cache — zero executed simulations, byte-identical
// report. `ddtr cache stats|verify|clear|merge|gc DIR` maintains the
// shared cache directory those flows meet in.
//
// Serving (see src/serve/): `ddtr serve` keeps the persistent cache, the
// generated traces and the simulation pool warm in one long-lived daemon;
// `submit` sends a workload over the unix socket and streams progress
// back — a resubmission of the same study replays entirely from the warm
// cache (zero executed simulations, byte-identical records). `--every S`
// registers the study with the daemon's scheduler for periodic
// re-exploration.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/ddtr.h"
#include "core/persistent_cache.h"
#include "core/report.h"
#include "core/result_log.h"
#include "dist/cache_inspect.h"
#include "dist/segment_merger.h"
#include "dist/worker_pool.h"
#include "lint.h"
#include "nettrace/generator.h"
#include "nettrace/parser.h"
#include "nettrace/presets.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/table.h"

namespace {

using namespace ddtr;

// Usage text is generated from the single sources of truth — the workload
// registry and energy::kMetricNames — so it cannot drift from the code.
std::string app_list() {
  std::ostringstream os;
  bool first = true;
  for (const std::string& name : api::registry().names()) {
    if (!first) os << '|';
    os << name;
    first = false;
  }
  return os.str();
}

std::string metric_list() {
  std::ostringstream os;
  bool first = true;
  for (const char* name : energy::kMetricNames) {
    if (!first) os << ' ';
    os << name;
    first = false;
  }
  return os.str();
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  ddtr apps\n"
      "  ddtr ddts\n"
      "  ddtr presets\n"
      "  ddtr tracegen --preset NAME [--packets N] [--seed-offset K] "
      "[--out FILE]\n"
      "  ddtr traceparse FILE\n"
      "  ddtr explore --app " << app_list() << " [--scale S] "
      "[--jobs N] [--greedy] [--progress]\n"
      "               [--survivor-cap F] [--cache-dir DIR] [--log FILE] "
      "[--csv PREFIX]\n"
      "               [--shard I/N | --workers N] [--trace FILE]\n"
      "    --jobs N: concurrent simulation lanes (default 1; 0 = one per\n"
      "              hardware thread); output is identical at any N\n"
      "    --greedy: per-slot greedy step 1 (fewer simulations)\n"
      "    --progress: per-step simulation progress on stderr\n"
      "    --cache-dir DIR: persist the simulation cache across runs in\n"
      "              DIR; a warm rerun executes 0 simulations and emits\n"
      "              an identical report\n"
      "    --shard I/N: run as worker shard I of N (requires --cache-dir):\n"
      "              simulate only this shard's units and store them into\n"
      "              a private cache segment; a later unsharded run over\n"
      "              the same --cache-dir replays all shards' work\n"
      "    --workers N: single-machine coordinator (requires --cache-dir):\n"
      "              spawn N shard workers, merge their segments, then\n"
      "              replay the merged cache (0 executed simulations)\n"
      "    --trace FILE: write a Chrome trace_event JSON span timeline of\n"
      "              the run (open in Perfetto / chrome://tracing); purely\n"
      "              observational — reports are byte-identical either way\n"
      "  ddtr lint [DIR|FILE ...] [--repo-root DIR] [--update-accounting]\n"
      "            [--fix [--dry-run]] [--diff REF] [--compile-commands F]\n"
      "    run the project-invariant static-analysis pass (decoder\n"
      "    safety, fsync-paired renames, pool-only DDT allocation,\n"
      "    cache-key determinism, accounting-version coupling, header\n"
      "    hygiene) plus the whole-program passes (layering vs\n"
      "    tools/lint/layers.lock, include cycles/IWYU, include order,\n"
      "    lock-order discipline, cv predicates) over the given paths\n"
      "    (default: src tests tools bench under --repo-root, \".\");\n"
      "    suppress one finding with // ddtr-lint: allow(<rule>) on the\n"
      "    same or preceding line\n"
      "    --fix: repair the mechanical families in place (missing\n"
      "              #pragma once, unused includes, include order);\n"
      "              --dry-run previews the rewrites as unified diffs\n"
      "    --diff REF: report only findings in files changed vs the git\n"
      "              ref — fast PR feedback (full tree stays in ctest)\n"
      "  ddtr pareto --log FILE [--app NAME] [--x METRIC] [--y METRIC]\n"
      "  ddtr cache stats|verify|clear|merge DIR\n"
      "  ddtr cache gc DIR --max-age-s S\n"
      "    gc: prune segment files older than S seconds (the main cache\n"
      "        file is never touched)\n"
      "  ddtr serve --socket PATH [--cache-dir DIR] [--jobs N]\n"
      "             [--progress-every S] [--trace FILE]\n"
      "    long-lived daemon: loads the cache once, accepts submissions\n"
      "    on the unix socket, re-explores scheduled jobs, drains and\n"
      "    flushes on SIGTERM/SIGINT\n"
      "    --progress-every S: stream at most one progress tick per S\n"
      "              seconds per running job (default 0.25; endpoints\n"
      "              always sent); advertised to clients in the handshake\n"
      "    --trace FILE: write the daemon's span timeline (connections,\n"
      "              jobs, exploration internals) on clean shutdown\n"
      "  ddtr submit --socket PATH --app " << app_list() << " [--scale S]\n"
      "              [--packets N] [--seed-offset K] [--greedy]\n"
      "              [--survivor-cap F] [--jobs N] [--every S]\n"
      "              [--x METRIC] [--y METRIC] [--log FILE] [--progress]\n"
      "    --every S: daemon re-explores this study every S seconds\n"
      "    --log FILE: write the run's result records to FILE\n"
      "  ddtr status --socket PATH\n"
      "  ddtr stats --socket PATH [--metrics]\n"
      "    live daemon introspection: uptime, since-boot cache hit/miss\n"
      "    counters, scheduler re-runs, and the job table with\n"
      "    submit/start/finish timestamps; --metrics appends the daemon's\n"
      "    full metrics-registry dump\n"
      "  ddtr results --socket PATH --job ID [--log FILE]\n"
      "  ddtr shutdown --socket PATH\n"
      "  ddtr tracecheck FILE\n"
      "    validate a --trace file: well-formed Chrome trace_event JSON\n"
      "    with balanced begin/end spans per thread (exit 1 otherwise)\n"
      "metrics: " << metric_list() << '\n';
  return 2;
}

// Minimal flag parsing: `--name value` pairs, valueless boolean flags
// (`--greedy`), and positionals. A `--flag` followed by another flag — or
// by nothing — is recorded with an empty value, so commands can tell
// "boolean flag given" apart from "value missing" and error on the latter
// instead of silently swallowing the flag as a positional.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  bool has(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return true;
    }
    return false;
  }

  // A flag that takes a value: returns it when given, std::nullopt when
  // absent, and throws when the flag was given without a value.
  std::optional<std::string> valued(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k != name) continue;
      if (v.empty()) {
        throw std::runtime_error("flag --" + name + " requires a value");
      }
      return v;
    }
    return std::nullopt;
  }

  // A flag that must be present with a value.
  std::string require(const std::string& name) const {
    auto v = valued(name);
    if (!v) {
      throw std::runtime_error("missing required flag --" + name);
    }
    return *v;
  }
};

// Validated numeric flag values. std::stoul/std::stod alone would let a
// malformed value escape as an uncaught std::invalid_argument (an ugly
// crash instead of a usage error) — and stoul would happily wrap "-1" to
// 2^64-1 or accept trailing garbage ("10x"). Every numeric flag goes
// through one of these; the thrown runtime_error surfaces as a clean
// "error: ..." message.
std::size_t parse_count_flag(const std::string& flag,
                             const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("flag --" + flag +
                             " expects a non-negative integer, got '" +
                             value + "'");
  }
  try {
    return std::stoul(value);
  } catch (const std::out_of_range&) {
    throw std::runtime_error("flag --" + flag + " value '" + value +
                             "' is out of range");
  }
}

double parse_double_flag(const std::string& flag, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error("flag --" + flag + " expects a number, got '" +
                             value + "'");
  } catch (const std::out_of_range&) {
    throw std::runtime_error("flag --" + flag + " value '" + value +
                             "' is out of range");
  }
  if (consumed != value.size()) {
    throw std::runtime_error("flag --" + flag + " expects a number, got '" +
                             value + "'");
  }
  return parsed;
}

// "--shard I/N" — worker shard I of N.
std::pair<std::size_t, std::size_t> parse_shard_flag(
    const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 == value.size()) {
    throw std::runtime_error("flag --shard expects I/N (e.g. 0/4), got '" +
                             value + "'");
  }
  const std::size_t index =
      parse_count_flag("shard", value.substr(0, slash));
  const std::size_t count =
      parse_count_flag("shard", value.substr(slash + 1));
  if (count == 0) {
    throw std::runtime_error("flag --shard count N must be >= 1");
  }
  if (index >= count) {
    throw std::runtime_error("flag --shard index must be < N in I/N, got '" +
                             value + "'");
  }
  return {index, count};
}

// Cooperative cancellation for shard workers: SIGTERM/SIGINT raise this
// flag, the engine stops starting simulations and checkpoints whatever it
// executed into the worker's cache segment — a killed worker loses
// wall-clock, never work. A signal handler may only touch lock-free
// atomics, so the flag is a constant-initialized file-scope atomic (no
// lazy init a handler could race or re-enter); the shared_ptr the engine
// polls aliases it without owning it.
std::atomic<bool> g_cancel{false};

void on_terminate_signal(int) { g_cancel.store(true); }

std::shared_ptr<std::atomic<bool>> cancel_token() {
  return {&g_cancel, [](std::atomic<bool>*) {}};
}

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string name = arg.substr(2);
      const bool has_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      args.flags.emplace_back(name, has_value ? argv[++i] : "");
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int cmd_apps() {
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
int cmd_ddts() {
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

int cmd_presets() {
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

int cmd_tracegen(const Args& args) {
  const std::string preset_name = args.require("preset");
  net::TraceGenerator::Options options;
  if (const auto packets = args.valued("packets")) {
    options.packet_count = parse_count_flag("packets", *packets);
  }
  if (const auto offset = args.valued("seed-offset")) {
    options.seed_offset = parse_count_flag("seed-offset", *offset);
  }
  const net::Trace trace =
      net::TraceGenerator::generate(net::network_preset(preset_name),
                                    options);
  if (const auto out = args.valued("out")) {
    std::ofstream os(*out);
    trace.save(os);
    std::cout << "wrote " << trace.size() << " packets to " << *out << '\n';
  } else {
    trace.save(std::cout);
  }
  return 0;
}

int cmd_traceparse(const Args& args) {
  if (args.positional.empty()) return usage();
  std::ifstream is(args.positional[0]);
  if (!is) {
    std::cerr << "cannot open " << args.positional[0] << '\n';
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

int cmd_explore(const Args& args, const char* argv0) {
  const std::string app = args.require("app");
  if (!api::registry().contains(app)) {
    std::cerr << "error: unknown app '" << app << "' (registered: "
              << app_list() << ")\n";
    return 2;
  }
  // Every flag is validated up front: a bad --jobs or a missing --log
  // value must fail before traces are generated and the exploration runs,
  // not after the work is done.
  double scale = 0.25;
  if (const auto s = args.valued("scale")) {
    scale = parse_double_flag("scale", *s);
  }
  const auto log_path = args.valued("log");
  const auto csv_prefix = args.valued("csv");
  const auto jobs = args.valued("jobs");
  const std::size_t job_count =
      jobs ? parse_count_flag("jobs", *jobs) : std::size_t{1};
  const auto survivor_cap = args.valued("survivor-cap");
  const double survivor_cap_fraction =
      survivor_cap ? parse_double_flag("survivor-cap", *survivor_cap) : 0.0;
  const auto cache_dir = args.valued("cache-dir");
  const auto trace_path = args.valued("trace");
  const auto shard_flag = args.valued("shard");
  const auto workers_flag = args.valued("workers");
  std::pair<std::size_t, std::size_t> shard{0, 1};
  if (shard_flag) shard = parse_shard_flag(*shard_flag);
  const std::size_t worker_count =
      workers_flag ? parse_count_flag("workers", *workers_flag)
                   : std::size_t{1};
  if (shard_flag && workers_flag) {
    throw std::runtime_error(
        "--shard and --workers are mutually exclusive (a shard worker is "
        "spawned BY --workers)");
  }
  if ((shard_flag || worker_count > 1) && !cache_dir) {
    throw std::runtime_error(
        "distributed exploration requires --cache-dir (shard workers meet "
        "only through cache segments)");
  }

  if (worker_count > 1) {
    // Coordinator: re-exec ourselves as one worker per shard (forwarding
    // every exploration flag, swapping --workers for --shard), merge the
    // segments they wrote, then fall through to the standard exploration
    // below — which replays the merged cache with zero executed
    // simulations and prints the usual (byte-identical) report.
    std::vector<std::string> base{dist::self_executable(argv0), "explore"};
    for (const auto& [key, value] : args.flags) {
      if (key == "workers" || key == "log" || key == "csv") continue;
      base.push_back("--" + key);
      if (!value.empty()) base.push_back(value);
    }
    std::vector<std::vector<std::string>> commands;
    commands.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      std::vector<std::string> command = base;
      command.push_back("--shard");
      command.push_back(std::to_string(i) + "/" +
                        std::to_string(worker_count));
      commands.push_back(std::move(command));
    }
    const std::vector<dist::ProcessResult> results =
        dist::run_worker_processes(commands);
    bool all_ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) continue;
      all_ok = false;
      std::cerr << "error: shard worker " << i << "/" << worker_count;
      if (!results[i].spawned) {
        std::cerr << " failed to spawn\n";
      } else if (results[i].signaled) {
        std::cerr << " died on signal " << results[i].term_signal << '\n';
      } else {
        std::cerr << " exited with code " << results[i].exit_code << '\n';
      }
    }
    if (!all_ok) return 1;
    const dist::MergeStats merged = dist::SegmentMerger::merge(*cache_dir);
    std::cout << "distributed: " << worker_count << " workers, merged "
              << merged.segment_files << " segments (" << merged.entries
              << " entries, " << merged.duplicates_dropped
              << " duplicates dropped)\n";
  }

  api::Exploration session(api::registry().make_study(
      app, core::CaseStudyOptions{}.scaled(scale)));
  // Span tracing is observational only: the report (and the warm-cache
  // byte-identity guarantee) is unaffected by --trace.
  std::optional<obs::TraceWriter> tracer;
  if (trace_path) {
    tracer.emplace();
    session.trace_sink(&*tracer);
  }
  const auto flush_trace = [&] {
    if (!tracer) return;
    if (!tracer->write_file(*trace_path)) {
      std::cerr << "error: cannot write trace file " << *trace_path << '\n';
      return;
    }
    std::cerr << "wrote " << tracer->event_count() << " trace events to "
              << *trace_path << '\n';
  };
  if (jobs) session.jobs(job_count);
  if (survivor_cap) session.survivor_cap(survivor_cap_fraction);
  if (cache_dir) session.cache_dir(*cache_dir);
  if (args.has("greedy")) {
    session.step1_policy(core::Step1Policy::kGreedyPerSlot);
  }
  if (args.has("progress")) {
    session.on_progress([](const core::StepProgress& p) {
      // One line per ~10% (and at the edges) to keep stderr readable.
      const std::size_t stride = std::max<std::size_t>(1, p.total / 10);
      if (p.done == 0 || p.done == p.total || p.done % stride == 0) {
        std::cerr << "[step " << p.step << "] " << p.done << '/' << p.total
                  << " simulations\n";
      }
    });
  }

  if (shard_flag) {
    // Worker mode: simulate this shard, checkpoint the segment, report on
    // stderr (stdout stays the coordinator's), skip the paper report —
    // a worker's in-memory report is partial by design.
    std::signal(SIGTERM, on_terminate_signal);
    std::signal(SIGINT, on_terminate_signal);
    session.shard(shard.first, shard.second).cancel_token(cancel_token());
    const core::ExplorationReport& report = session.run();
    const std::string segment = core::PersistentSimulationCache(*cache_dir)
                                    .segment_path(report.segment_tag);
    std::cerr << "[ddtr shard " << shard.first << '/' << shard.second << "] "
              << report.app_name << ": executed "
              << report.executed_simulations() << ", replayed "
              << report.cache_hits << ", foreign "
              << report.skipped_foreign_shard << ", stored "
              << report.persistent_stored << " -> " << segment << '\n';
    if (report.cancelled) {
      std::cerr << "[ddtr shard " << shard.first << '/' << shard.second
                << "] cancelled — segment checkpointed ("
                << report.persistent_stored << " records)\n";
    }
    flush_trace();
    return 0;
  }

  const core::ExplorationReport& report = session.run();
  flush_trace();

  std::cout << "application: " << report.app_name << '\n'
            << "configurations: " << report.scenario_count << '\n'
            << "exhaustive simulations: " << report.exhaustive_simulations
            << '\n'
            << "reduced simulations:   " << report.reduced_simulations()
            << '\n'
            << "executed simulations:  " << report.executed_simulations()
            << " (cache hit rate "
            << support::format_percent(report.cache_hit_rate()) << ")\n";
  if (cache_dir) {
    std::cout << "persistent cache:      loaded " << report.persistent_loaded
              << ", stored " << report.persistent_stored << " records in "
              << *cache_dir << '\n';
  }
  std::cout << "survivors after step 1: " << report.survivors.size() << '\n'
            << "Pareto-optimal combinations:\n";
  for (const auto& r : report.pareto_records()) {
    std::cout << "  " << r.combo.label() << "  energy "
              << support::format_double(r.metrics.energy_mj, 4)
              << " mJ, time "
              << support::format_double(r.metrics.time_s * 1e3, 3)
              << " ms, accesses " << support::format_count(r.metrics.accesses)
              << ", footprint "
              << support::format_bytes(r.metrics.footprint_bytes) << '\n';
  }
  std::cout << "\nper-metric best combinations (step 2 logs):\n";
  core::print_best_by_metric(std::cout, report.step2_records);

  if (log_path) {
    std::ofstream os(*log_path);
    os << report.serialized_records();
    std::cout << "\nwrote "
              << report.step1_records.size() + report.step2_records.size()
              << " records to " << *log_path << '\n';
  }
  if (csv_prefix) {
    {
      std::ofstream os(*csv_prefix + "_records.csv");
      core::write_records_csv(os, report.step2_records);
    }
    {
      std::ofstream os(*csv_prefix + "_time_energy.csv");
      core::write_pareto_csv(os, report.step2_records, 1, 0);
    }
    {
      std::ofstream os(*csv_prefix + "_accesses_footprint.csv");
      core::write_pareto_csv(os, report.step2_records, 2, 3);
    }
    std::cout << "wrote " << *csv_prefix << "_{records,time_energy,"
              << "accesses_footprint}.csv\n";
  }
  return 0;
}

// ddtr lint [PATH ...] — the project linter (see tools/lint/lint.h), the
// exact pass the `lint` ctest and the CI lint job run. Exit 1 on any
// finding so scripts can gate on it.
int cmd_lint(const Args& raw_args) {
  // The generic parser attaches a following positional to any flag;
  // lint's boolean flags must give theirs back (`lint --fix src`).
  Args args = raw_args;
  for (auto& [k, v] : args.flags) {
    if ((k == "fix" || k == "dry-run" || k == "update-accounting") &&
        !v.empty()) {
      args.positional.push_back(v);
      v.clear();
    }
  }
  lint::RunOptions options;
  options.repo_root = args.valued("repo-root").value_or(".");
  options.update_accounting = args.has("update-accounting");
  options.fix = args.has("fix");
  options.dry_run = args.has("dry-run");
  options.diff_ref = args.valued("diff").value_or("");
  options.compile_commands = args.valued("compile-commands").value_or("");
  options.roots = args.positional;
  if (options.roots.empty()) {
    for (const char* dir : {"src", "tests", "tools", "bench"}) {
      options.roots.push_back(options.repo_root + "/" + dir);
    }
  }
  return lint::run_lint(options, std::cout) == 0 ? 0 : 1;
}

// ddtr cache <stats|verify|clear|merge> DIR — inspection and maintenance
// of a persistent-cache directory (main file + per-writer segments).
int cmd_cache(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const std::string& op = args.positional[0];
  const std::string& dir = args.positional[1];

  if (op == "stats") {
    const dist::CacheStats stats = dist::inspect_cache(dir);
    support::TextTable table({"property", "value"});
    table.add_row({"directory", dir});
    table.add_row({"files", std::to_string(stats.files)});
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
    const dist::VerifyReport report = dist::verify_cache(dir);
    support::TextTable table({"file", "header", "entries", "corrupt",
                              "torn tail bytes"});
    for (const auto& [path, check] : report.files) {
      if (!check.present) {
        table.add_row({path, "absent", "-", "-", "-"});
        continue;
      }
      if (check.empty) {
        // Zero-length: the scar of a crash before the first write —
        // tolerated, rewritten by the next store.
        table.add_row({path, "empty", "0", "0", "0"});
        continue;
      }
      table.add_row({path, check.header_valid ? "ok" : "INVALID",
                     std::to_string(check.entries_ok),
                     std::to_string(check.entries_corrupt),
                     std::to_string(check.trailing_bytes)});
    }
    table.print(std::cout);
    std::cout << (report.ok() ? "cache verify: OK\n"
                              : "cache verify: CORRUPT\n");
    return report.ok() ? 0 : 1;
  }

  if (op == "clear") {
    const std::size_t removed = dist::clear_cache(dir);
    std::cout << "removed " << removed << " cache file"
              << (removed == 1 ? "" : "s") << " from " << dir << '\n';
    return 0;
  }

  if (op == "merge") {
    const dist::MergeStats stats = dist::SegmentMerger::merge(dir);
    std::cout << "merged " << stats.segment_files << " segments into "
              << core::PersistentSimulationCache(dir).file_path() << ": "
              << stats.entries << " entries, " << stats.duplicates_dropped
              << " duplicates dropped, "
              << support::format_bytes(stats.bytes_before) << " -> "
              << support::format_bytes(stats.bytes_after) << '\n';
    return 0;
  }

  if (op == "gc") {
    const double max_age_s =
        parse_double_flag("max-age-s", args.require("max-age-s"));
    if (!std::isfinite(max_age_s) || max_age_s < 0.0 || max_age_s > 1e10) {
      throw std::runtime_error(
          "flag --max-age-s expects seconds in [0, 1e10], got '" +
          args.require("max-age-s") + "'");
    }
    const dist::GcStats stats = dist::gc_cache(dir, max_age_s);
    std::cout << "gc: removed " << stats.segments_removed << " segment"
              << (stats.segments_removed == 1 ? "" : "s") << " older than "
              << support::format_double(max_age_s, 3) << " s (" << stats.kept
              << " kept) in " << dir << '\n';
    return 0;
  }

  std::cerr << "error: unknown cache operation '" << op
            << "' (stats|verify|clear|merge|gc)\n";
  return 2;
}

std::optional<std::size_t> metric_index(const std::string& name) {
  for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
    if (name == energy::kMetricNames[m]) return m;
  }
  return std::nullopt;
}

int cmd_pareto(const Args& args) {
  const std::string log_path = args.require("log");
  std::ifstream is(log_path);
  if (!is) {
    std::cerr << "cannot open " << log_path << '\n';
    return 1;
  }
  core::ResultLog log = core::ResultLog::load(is);
  std::vector<core::SimulationRecord> records = log.records();
  if (const auto app = args.valued("app")) records = log.for_app(*app);

  std::size_t mx = 1, my = 0;  // default: time vs energy
  if (const auto x = args.valued("x")) {
    const auto idx = metric_index(*x);
    if (!idx) return usage();
    mx = *idx;
  }
  if (const auto y = args.valued("y")) {
    const auto idx = metric_index(*y);
    if (!idx) return usage();
    my = *idx;
  }

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

// The running daemon, for the signal handlers. request_stop() is a bare
// atomic store, so calling it from a handler is safe; the pointer itself
// is atomic for the same reason.
std::atomic<serve::Server*> g_serve_server{nullptr};

void on_serve_signal(int) {
  if (serve::Server* server = g_serve_server.load()) server->request_stop();
}

int cmd_serve(const Args& args) {
  serve::ServerOptions options;
  options.socket_path = args.require("socket");
  if (const auto dir = args.valued("cache-dir")) options.cache_dir = *dir;
  if (const auto jobs = args.valued("jobs")) {
    options.jobs = parse_count_flag("jobs", *jobs);
  }
  if (const auto every = args.valued("progress-every")) {
    options.progress_every_s = parse_double_flag("progress-every", *every);
    // Bounded above too: "inf" or 1e300 would overflow the steady-clock
    // duration conversion.
    if (!std::isfinite(options.progress_every_s) ||
        options.progress_every_s <= 0.0 || options.progress_every_s > 1e7) {
      throw std::runtime_error(
          "flag --progress-every expects seconds in (0, 1e7], got '" +
          *every + "'");
    }
  }
  options.log = &std::cout;
  const auto trace_path = args.valued("trace");
  std::optional<obs::TraceWriter> tracer;
  if (trace_path) {
    tracer.emplace();
    options.trace = &*tracer;
  }

  serve::Server server(options);
  server.start();
  // Drain-and-flush on SIGTERM/SIGINT: in-flight sessions finish, the
  // persistent cache is compacted, the socket file is removed.
  g_serve_server.store(&server);
  std::signal(SIGTERM, on_serve_signal);
  std::signal(SIGINT, on_serve_signal);
  server.serve_forever();
  g_serve_server.store(nullptr);
  if (tracer) {
    if (tracer->write_file(*trace_path)) {
      std::cout << "[serve] wrote " << tracer->event_count()
                << " trace events to " << *trace_path << '\n';
    } else {
      std::cerr << "error: cannot write trace file " << *trace_path << '\n';
    }
  }
  return 0;
}

// Shared result rendering of `submit` and `results`.
void print_result(const serve::ResultFrame& result,
                  const std::optional<std::string>& log_path) {
  std::cout << "job " << result.job_id << " (" << result.app << "), run "
            << result.runs << ":\n"
            << "executed simulations:  " << result.executed << " of "
            << result.logical << " logical (cache hits " << result.cache_hits
            << ")\n"
            << "persistent cache:      loaded " << result.persistent_loaded
            << ", stored " << result.persistent_stored << '\n'
            << "survivors after step 1: " << result.survivors << '\n'
            << "Pareto-optimal combinations: " << result.pareto_count << '\n';
  if (!result.pareto.empty()) std::cout << result.pareto;
  if (log_path) {
    std::ofstream os(*log_path);
    os << result.records;
    std::cout << "wrote result records to " << *log_path << '\n';
  }
}

int cmd_submit(const Args& args) {
  const std::string socket = args.require("socket");
  serve::SubmitRequest request;
  request.app = args.require("app");
  if (const auto scale = args.valued("scale")) {
    request.scale = parse_double_flag("scale", *scale);
  }
  if (const auto packets = args.valued("packets")) {
    request.packets = parse_count_flag("packets", *packets);
  }
  if (const auto offset = args.valued("seed-offset")) {
    request.seed_offset = parse_count_flag("seed-offset", *offset);
  }
  request.greedy = args.has("greedy") ? 1 : 0;
  if (const auto cap = args.valued("survivor-cap")) {
    request.survivor_cap = parse_double_flag("survivor-cap", *cap);
  }
  if (const auto jobs = args.valued("jobs")) {
    request.jobs = parse_count_flag("jobs", *jobs);
  }
  if (const auto every = args.valued("every")) {
    request.every_s = parse_double_flag("every", *every);
    // Bounded above too: "inf" or 1e300 would overflow the deadline
    // arithmetic.
    if (!std::isfinite(request.every_s) || request.every_s <= 0.0 ||
        request.every_s > 1e7) {
      throw std::runtime_error(
          "flag --every expects seconds in (0, 1e7], got '" + *every + "'");
    }
  }
  if (const auto x = args.valued("x")) request.metric_x = *x;
  if (const auto y = args.valued("y")) request.metric_y = *y;
  const auto log_path = args.valued("log");

  serve::Client client(socket);
  std::cout << "daemon: " << client.hello().warm_entries
            << " warm records, " << client.hello().warm_traces
            << " warm traces\n";
  serve::Client::ProgressFn on_progress;
  if (args.has("progress")) {
    on_progress = [](const serve::ProgressFrame& tick) {
      std::cerr << "[job " << tick.job_id << " step " << tick.step << "] "
                << tick.done << '/' << tick.total << " simulations\n";
    };
  }
  print_result(client.submit(request, on_progress), log_path);
  return 0;
}

int cmd_status(const Args& args) {
  serve::Client client(args.require("socket"));
  const serve::StatusReply reply = client.status();
  std::cout << reply.warm_entries << " warm records, " << reply.jobs.size()
            << " job" << (reply.jobs.size() == 1 ? "" : "s") << '\n';
  if (reply.jobs.empty()) return 0;
  support::TextTable table(
      {"job", "app", "state", "runs", "last executed", "every_s"});
  for (const serve::JobStatus& job : reply.jobs) {
    table.add_row({std::to_string(job.id), job.app, job.state,
                   std::to_string(job.runs),
                   std::to_string(job.last_executed),
                   job.every_s > 0.0 ? support::format_double(job.every_s, 3)
                                     : "-"});
  }
  table.print(std::cout);
  return 0;
}

// ddtr stats — live introspection of a running daemon: uptime, cache
// behavior since boot, scheduler activity, and the full job lifecycle
// table. With --metrics, the daemon's metrics-registry dump rides along.
int cmd_stats(const Args& args) {
  serve::Client client(args.require("socket"));
  const serve::StatsReply reply = client.stats(args.has("metrics"));
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
  table.add_row({"sessions served", std::to_string(reply.sessions_served)});
  table.add_row({"cache hits (boot)", std::to_string(reply.cache_hits)});
  table.add_row({"cache misses (boot)", std::to_string(reply.cache_misses)});
  table.add_row({"cache hit rate", support::format_percent(hit_rate)});
  table.add_row({"jobs submitted", std::to_string(reply.jobs_submitted)});
  table.add_row({"scheduler re-runs",
                 std::to_string(reply.scheduler_reruns)});
  table.print(std::cout);
  if (!reply.jobs.empty()) {
    std::cout << '\n';
    support::TextTable jobs({"job", "app", "state", "runs", "last executed",
                             "every_s", "submit_ms", "start_ms",
                             "finish_ms"});
    for (const serve::JobStats& job : reply.jobs) {
      jobs.add_row({std::to_string(job.id), job.app, job.state,
                    std::to_string(job.runs),
                    std::to_string(job.last_executed),
                    job.every_s > 0.0
                        ? support::format_double(job.every_s, 3)
                        : "-",
                    std::to_string(job.submit_ms),
                    std::to_string(job.start_ms),
                    std::to_string(job.finish_ms)});
    }
    jobs.print(std::cout);
  }
  if (!reply.metrics_text.empty()) {
    std::cout << "\nmetrics:\n" << reply.metrics_text;
  }
  return 0;
}

// ddtr tracecheck FILE — the CI-facing validator for --trace output:
// strict JSON, the trace_event document shape, and balanced begin/end
// spans per (pid, tid). Exit 1 with a one-line diagnostic on any defect.
int cmd_tracecheck(const Args& args) {
  if (args.positional.size() != 1) return usage();
  std::ifstream is(args.positional[0], std::ios::binary);
  if (!is) {
    std::cerr << "cannot open " << args.positional[0] << '\n';
    return 1;
  }
  std::ostringstream content;
  content << is.rdbuf();
  const std::string problem = obs::check_trace(content.str());
  if (!problem.empty()) {
    std::cerr << "tracecheck: " << args.positional[0] << ": " << problem
              << '\n';
    return 1;
  }
  std::cout << "tracecheck: " << args.positional[0] << ": OK\n";
  return 0;
}

int cmd_results(const Args& args) {
  const std::string socket = args.require("socket");
  const std::size_t job_id = parse_count_flag("job", args.require("job"));
  serve::Client client(socket);
  print_result(client.results(job_id), args.valued("log"));
  return 0;
}

int cmd_shutdown(const Args& args) {
  serve::Client client(args.require("socket"));
  const serve::ShutdownAck ack = client.shutdown();
  std::cout << "daemon draining after " << ack.sessions_served
            << " session" << (ack.sessions_served == 1 ? "" : "s") << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (command == "apps") return cmd_apps();
    if (command == "ddts") return cmd_ddts();
    if (command == "presets") return cmd_presets();
    if (command == "tracegen") return cmd_tracegen(args);
    if (command == "traceparse") return cmd_traceparse(args);
    if (command == "explore") return cmd_explore(args, argv[0]);
    if (command == "pareto") return cmd_pareto(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "cache") return cmd_cache(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "submit") return cmd_submit(args);
    if (command == "status") return cmd_status(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "results") return cmd_results(args);
    if (command == "shutdown") return cmd_shutdown(args);
    if (command == "tracecheck") return cmd_tracecheck(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
