#include "workloads.h"

#include <malloc.h>

#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/exploration.h"
#include "api/registry.h"
#include "apps/common/app.h"
#include "core/case_studies.h"
#include "core/explorer.h"
#include "core/pareto.h"
#include "core/persistent_cache.h"
#include "ddt/kinds.h"
#include "nettrace/trace_store.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/fnv_hash.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace api = ddtr::api;
namespace core = ddtr::core;
namespace ddt = ddtr::ddt;
namespace energy = ddtr::energy;
namespace serve = ddtr::serve;

namespace {

// Paths are relative: the benchmark runs inside its own scratch directory,
// which also keeps the unix-socket paths far below the sun_path limit.
constexpr const char* kServeDir = "serve-cache";
constexpr const char* kServeSocket = "serve.sock";
constexpr const char* kProbeSocket = "probe.sock";
// Each connection leaves an unjoined thread stack in the daemon until it
// drains, so serve_resubmit restarts its daemon (untimed, warm from its
// cache directory) after this many connections to bound the process.
constexpr std::size_t kEpochConnections = 1000;
// Timed submits per study in the serve probe.
constexpr std::size_t kProbeSubmits = 16;
// Micro-timings repeat their loop until at least this much time passed.
constexpr double kMicroMinMs = 20.0;

std::uint64_t digest_of(const std::string& records) {
  return ddtr::support::fnv1a64(records.data(), records.size());
}

core::CaseStudyOptions study_options(std::uint64_t offset) {
  core::CaseStudyOptions options = core::CaseStudyOptions{}.scaled(1.0);
  options.seed_offset = offset;
  return options;
}

serve::SubmitRequest submit_request(const std::string& app,
                                    std::uint64_t offset) {
  serve::SubmitRequest request;
  request.app = app;
  request.scale = 1.0;
  request.seed_offset = offset;
  return request;
}

// VmSize growth since `since_kb`, signed: a drained daemon can shrink it.
double vm_growth_kb(std::uint64_t since_kb) {
  return static_cast<double>(proc_status_kb("VmSize")) -
         static_cast<double>(since_kb);
}

void add(Samples& samples, const std::string& name, double value) {
  samples[name].push_back(value);
}

// Moves the clock's per-layer self times into `samples` as "<layer>_ms";
// returns the sum of all of them (the wall time the scopes covered).
double take_layers(LayerClock& clock, Samples& samples,
                   double* unit_self_ms = nullptr) {
  double total = 0.0;
  for (const auto& [layer, ms] : clock.take()) {
    total += ms;
    if (layer == "unit") {
      if (unit_self_ms != nullptr) *unit_self_ms = ms;
      continue;
    }
    add(samples, layer + "_ms", ms);
  }
  return total;
}

bool same_counters(const ddtr::prof::ProfileCounters& a,
                   const ddtr::prof::ProfileCounters& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.allocations == b.allocations &&
         a.deallocations == b.deallocations && a.live_bytes == b.live_bytes &&
         a.peak_bytes == b.peak_bytes && a.cpu_ops == b.cpu_ops;
}

bool same_metrics(const energy::Metrics& a, const energy::Metrics& b) {
  return a.energy_mj == b.energy_mj && a.time_s == b.time_s &&
         a.accesses == b.accesses && a.footprint_bytes == b.footprint_bytes;
}

// The slot whose legal kinds include HASH (a keyed slot), or npos.
std::size_t keyed_slot(const core::CaseStudy& study) {
  const auto sets = study.slot_kind_sets();
  for (std::size_t slot = 0; slot < sets.size(); ++slot) {
    for (const ddt::DdtKind kind : sets[slot]) {
      if (kind == ddt::DdtKind::kOpenHash) return slot;
    }
  }
  return std::string::npos;
}

std::map<std::string, const core::Scenario*> scenarios_by_label(
    const core::CaseStudy& study) {
  std::map<std::string, const core::Scenario*> out;
  for (const core::Scenario& scenario : study.scenarios) {
    out[scenario.label()] = &scenario;
  }
  return out;
}

// Times one NetworkApplication::run, adds it to the app and keyed-kind
// samples, and returns the run's counters and duration.
std::pair<ddtr::apps::RunResult, double> timed_run(
    const core::CaseStudy& study, const core::Scenario& scenario,
    const ddt::DdtCombination& combo, const std::string& app,
    Samples& samples) {
  const auto start = Clock::now();
  ddtr::apps::RunResult run = scenario.app->run(*scenario.trace, combo);
  const double ms = ms_since(start);
  add(samples, "apps.run_ms." + app, ms);
  const std::size_t slot = keyed_slot(study);
  if (slot != std::string::npos) {
    add(samples,
        "ddt.keyed_slot_ms." +
            kind_metric_name(std::string(ddt::to_string(combo[slot]))),
        ms);
  }
  return {std::move(run), ms};
}

// The kernel-replay oracle: re-runs every record through the app kernel
// and requires the engine's counters and metrics exactly. Returns the
// summed kernel time.
double replay_records(const core::CaseStudy& study, const std::string& app,
                      const std::vector<core::SimulationRecord>& records,
                      const energy::EnergyModel& model, Traced& traced) {
  const auto scenarios = scenarios_by_label(study);
  double kernel_ms = 0.0;
  for (const core::SimulationRecord& record : records) {
    const auto it = scenarios.find(record.scenario_label());
    if (it == scenarios.end()) {
      traced.mismatches.push_back(app + ": no scenario " +
                                  record.scenario_label());
      continue;
    }
    auto [run, ms] =
        timed_run(study, *it->second, record.combo, app, traced.units);
    kernel_ms += ms;
    ++traced.replayed;
    if (!same_counters(run.total, record.counters) ||
        !same_metrics(model.evaluate(run.total), record.metrics)) {
      traced.mismatches.push_back(app + ": " + record.combo.label() + " on " +
                                  record.scenario_label());
    }
  }
  return kernel_ms;
}

// Encode + decode cost of one result frame, in microseconds per round.
void measure_codec(const serve::ResultFrame& result, Samples& samples) {
  std::size_t rounds = 0;
  std::size_t bytes = 0;
  const auto start = Clock::now();
  do {
    const std::string wire = serve::encode_frame(
        {serve::FrameType::kResult, serve::encode_result(result)});
    std::istringstream in(wire);
    serve::Frame frame;
    serve::ResultFrame decoded;
    if (serve::decode_frame(in, frame) != serve::DecodeStatus::kOk ||
        !serve::decode_result(frame.payload, decoded) ||
        decoded.records != result.records) {
      throw std::runtime_error("result frame does not round-trip");
    }
    bytes = wire.size();
    ++rounds;
  } while (ms_since(start) < kMicroMinMs);
  add(samples, "serve.codec_us",
      ms_since(start) * 1000.0 / static_cast<double>(rounds));
  add(samples, "serve.result_bytes", static_cast<double>(bytes));
}

// An in-process daemon on its own accept thread; destruction drains it.
class Daemon {
 public:
  Daemon(const std::string& socket, const std::string& cache_dir)
      : server_(options(socket, cache_dir)) {
    server_.start();
    thread_ = std::thread([this] {
      try {
        server_.serve_forever();
      } catch (const std::exception& error) {
        std::cerr << "daemon stopped: " << error.what() << '\n';
      }
    });
  }
  ~Daemon() {
    server_.request_stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint64_t sessions() const { return server_.sessions_served(); }

 private:
  static serve::ServerOptions options(const std::string& socket,
                                      const std::string& cache_dir) {
    serve::ServerOptions options;
    options.socket_path = socket;
    options.cache_dir = cache_dir;
    options.jobs = 1;
    return options;
  }

  serve::Server server_;
  std::thread thread_;
};

// One submit on a fresh connection, as `ddtr submit` does; with a clock,
// the connect, submit and close phases are layer scopes.
serve::ResultFrame submit_once(const std::string& socket,
                               const serve::SubmitRequest& request,
                               LayerClock* clock, const char* cat) {
  std::optional<serve::Client> client;
  serve::ResultFrame result;
  if (clock == nullptr) {
    client.emplace(socket);
    result = client->submit(request);
    client.reset();
    return result;
  }
  {
    LayerClock::Scope scope(*clock, "serve.connect", cat);
    client.emplace(socket);
  }
  {
    LayerClock::Scope scope(*clock, "serve.submit", cat);
    result = client->submit(request);
  }
  {
    LayerClock::Scope scope(*clock, "serve.close", cat);
    client.reset();
  }
  return result;
}

}  // namespace

std::string kind_metric_name(const std::string& label) {
  std::string out;
  for (const char c : label) {
    if (c == '(') {
      out.push_back('_');
    } else if (c != ')') {
      out.push_back(c);
    }
  }
  return out;
}

Workload::Workload(std::string name, std::vector<std::string> apps,
                   std::size_t lanes, std::size_t min_units,
                   std::uint64_t seed)
    : name_(std::move(name)),
      apps_(std::move(apps)),
      lanes_(lanes),
      min_units_(min_units),
      offset_(seed),
      model_(core::make_paper_energy_model()) {}

void Workload::build_studies() {
  ddtr::net::TraceStore::global().clear();
  studies_.clear();
  for (const std::string& app : apps_) {
    studies_.push_back(api::registry().make_study(app, study_options(offset_)));
  }
}

std::string Workload::check_digest(const std::string& app,
                                   std::uint64_t digest) {
  const std::string key = app + "@" + std::to_string(offset_);
  const auto [it, inserted] = references_.emplace(key, digest);
  if (inserted || it->second == digest) return {};
  return key + " records digest " + hex64(digest) + " != reference " +
         hex64(it->second);
}

std::shared_ptr<Composed> Workload::compose(std::size_t app_index,
                                            const std::string& cache_dir,
                                            LayerClock& clock,
                                            const char* cat) {
  auto out = std::make_shared<Composed>();
  out->app = apps_[app_index];
  out->study = &studies_[app_index];
  out->cache = std::make_unique<core::SimulationCache>();
  core::ExplorationOptions options;
  options.jobs = lanes_;
  const core::ExplorationEngine engine(model_, options);

  std::optional<core::PersistentSimulationCache> persistent;
  if (!cache_dir.empty()) {
    LayerClock::Scope scope(clock, "core.pcache.load", cat);
    persistent.emplace(cache_dir);
    out->loaded = persistent->load();
    persistent->seed(*out->cache);
  }
  {
    LayerClock::Scope scope(clock, "core.step1", cat);
    out->step1 = engine.run_step1(*out->study, out->cache.get());
  }
  std::vector<ddt::DdtCombination> survivors;
  {
    LayerClock::Scope scope(clock, "core.select", cat);
    survivors = engine.select_survivors(out->step1);
  }
  {
    LayerClock::Scope scope(clock, "core.step2", cat);
    out->step2 = engine.run_step2(*out->study, survivors, out->cache.get());
  }
  if (persistent) {
    LayerClock::Scope scope(clock, "core.pcache.store", cat);
    out->stored = persistent->store_new(*out->cache);
  }
  {
    LayerClock::Scope scope(clock, "core.aggregate", cat);
    const std::vector<core::SimulationRecord> aggregated =
        engine.aggregate(out->step2);
    std::vector<energy::Metrics> points;
    points.reserve(aggregated.size());
    for (const core::SimulationRecord& record : aggregated) {
      points.push_back(record.metrics);
    }
    core::pareto_filter(points);
  }
  {
    LayerClock::Scope scope(clock, "core.serialize", cat);
    core::ExplorationReport report;
    report.step1_records = std::move(out->step1);
    report.step2_records = std::move(out->step2);
    out->records = report.serialized_records();
    out->step1 = std::move(report.step1_records);
    out->step2 = std::move(report.step2_records);
  }
  if (persistent) {
    const fs::path file = persistent->file_path();
    std::error_code ignored;
    out->file_bytes = fs::exists(file, ignored) ? fs::file_size(file, ignored)
                                                : 0;
    out->persistent = true;
  }
  return out;
}

std::string Workload::check_composed(const Composed& run, Samples& samples,
                                     Traced& traced) {
  const core::SimulationCache::Stats stats = run.cache->stats();
  add(samples, "core.cache.hits", static_cast<double>(stats.hits));
  add(samples, "core.cache.misses", static_cast<double>(stats.misses));
  if (run.persistent) {
    add(samples, "core.pcache.load_entries", static_cast<double>(run.loaded));
    add(samples, "core.pcache.store_entries", static_cast<double>(run.stored));
    add(samples, "core.pcache.file_bytes", static_cast<double>(run.file_bytes));
  }
  traced.step1_of[run.app] = run.step1;
  return check_digest(run.app, digest_of(run.records));
}

std::string Workload::pcache_probe(Traced& traced) {
  const std::string dir = "probe-cache";
  fs::remove_all(dir);
  std::size_t stored = 0;
  {
    core::PersistentSimulationCache writer(dir);
    LayerClock::Scope scope(traced.clock, "core.pcache.store", "probe");
    for (const auto& run : traced.last) stored += writer.store_new(*run->cache);
  }
  core::PersistentSimulationCache reader(dir);
  std::size_t loaded = 0;
  {
    LayerClock::Scope scope(traced.clock, "core.pcache.load", "probe");
    loaded = reader.load();
  }
  take_layers(traced.clock, traced.probes);
  add(traced.probes, "core.pcache.store_entries", static_cast<double>(stored));
  add(traced.probes, "core.pcache.load_entries", static_cast<double>(loaded));
  add(traced.probes, "core.pcache.file_bytes",
      static_cast<double>(fs::file_size(reader.file_path())));
  if (loaded != stored) {
    traced.mismatches.push_back("persistent probe loaded " +
                                std::to_string(loaded) + " of " +
                                std::to_string(stored) + " entries");
  }
  return dir;
}

void Workload::serve_probe(Traced& traced, const std::string& cache_dir) {
  Daemon daemon(kProbeSocket, cache_dir);
  const std::uint64_t vm_before = proc_status_kb("VmSize");
  std::size_t connections = 0;
  serve::ResultFrame result;
  for (const auto& run : traced.last) {
    const serve::SubmitRequest request = submit_request(run->app, offset_);
    // Untimed first submit: pays any trace synthesis the daemon needs.
    submit_once(kProbeSocket, request, nullptr, "probe");
    ++connections;
    for (std::size_t i = 0; i < kProbeSubmits; ++i) {
      result = submit_once(kProbeSocket, request, &traced.clock, "probe");
      ++connections;
      take_layers(traced.clock, traced.probes);
      if (result.executed != 0 || digest_of(result.records) !=
                                      digest_of(run->records)) {
        traced.mismatches.push_back("serve probe " + run->app +
                                    ": warm submit differs from the "
                                    "composed exploration");
      }
    }
  }
  add(traced.probes, "serve.vm_kb_per_conn",
      vm_growth_kb(vm_before) /
          static_cast<double>(connections));
  measure_codec(result, traced.probes);
}

void Workload::probe(Traced& traced) {
  serve_probe(traced, pcache_probe(traced));
}

void Workload::record_traced_unit(Traced& traced) {
  double unit_self_ms = 0.0;
  const double covered = take_layers(traced.clock, traced.units, &unit_self_ms);
  add(traced.units, "trace.remainder_frac",
      covered > 0.0 ? unit_self_ms / covered : 0.0);
}

namespace {

// cold_unkeyed: every unit explores route or url (in turn) from scratch
// with a fresh api::Exploration on 2 lanes, into a fresh, empty cache_dir.
class ColdWorkload final : public Workload {
 public:
  explicit ColdWorkload(std::uint64_t seed)
      : Workload("cold_unkeyed", {"route", "url"}, 2, 2, seed) {}

  // Study build plus one discarded warm-up unit.
  void setup() override {
    build_studies();
    const UnitOutcome warmup = unit(0);
    if (!warmup.failure.empty()) {
      throw std::runtime_error("set-up unit: " + warmup.failure);
    }
  }

  UnitOutcome unit(std::size_t slot) override {
    UnitOutcome out;
    out.mode = app_of(slot);
    const auto start = Clock::now();
    api::Exploration session(studies_[out.mode]);
    session.jobs(lanes_).cache_dir(unit_dir(slot));
    const core::ExplorationReport& report = session.run();
    const std::string records = report.serialized_records();
    out.ms = ms_since(start);
    out.executed[apps_[out.mode]] = report.executed_simulations();
    out.failure = check_digest(apps_[out.mode], digest_of(records));
    fs::remove_all(unit_dir(slot));
    return out;
  }

  UnitOutcome traced_unit(std::size_t slot, Traced& traced) override {
    UnitOutcome out;
    out.mode = app_of(slot);
    std::shared_ptr<Composed> run;
    const auto start = Clock::now();
    {
      LayerClock::Scope scope(traced.clock, "unit", "bench");
      run = compose(out.mode, unit_dir(slot), traced.clock, "bench");
    }
    out.ms = ms_since(start);
    // The unit's step times, before record_traced_unit drains the clock.
    const std::size_t first = traced.units["core.step1_ms"].size();
    record_traced_unit(traced);
    const double step_ms = traced.units["core.step1_ms"][first] +
                           traced.units["core.step2_ms"][first];

    out.failure = check_composed(*run, traced.units, traced);
    out.executed[run->app] = run->cache->stats().misses;
    // A cold unit's cache holds exactly the simulations it executed.
    std::vector<core::SimulationRecord> executed;
    for (auto& entry : run->cache->entries()) {
      executed.push_back(std::move(entry.second));
    }
    const double kernel_ms =
        replay_records(*run->study, run->app, executed, model_, traced);
    add(traced.units, "support.pool.busy_frac",
        kernel_ms / (static_cast<double>(lanes_) * step_ms));
    traced.last = {run};
    fs::remove_all(unit_dir(slot));
    return out;
  }

 private:
  std::string unit_dir(std::size_t slot) const {
    return "unit-" + std::to_string(slot);
  }
};

// serve_resubmit: an in-process daemon, warmed in set-up by one cold
// submit per study; one client then resubmits the studies in turn, each
// on a fresh connection, as `ddtr submit` does.
class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed)
      : Workload("serve_resubmit", kApps, 1, 100, seed) {}

  void setup() override {
    daemon_.reset();
    fs::remove_all(kServeDir);
    build_studies();
    start_daemon();
    for (std::size_t j = 0; j < apps_.size(); ++j) {
      const serve::ResultFrame result = submit_once(
          kServeSocket, submit_request(apps_[j], offset_), nullptr, "");
      settle();
      const std::string failure =
          check_digest(apps_[j], digest_of(result.records));
      if (!failure.empty()) throw std::runtime_error("cold submit: " + failure);
    }
    start_epoch();
  }

  UnitOutcome unit(std::size_t slot) override {
    return submit_unit(slot, nullptr);
  }

  UnitOutcome traced_unit(std::size_t slot, Traced& traced) override {
    UnitOutcome out = submit_unit(slot, &traced);
    record_traced_unit(traced);
    measure_codec(last_result_, traced.units);
    return out;
  }

  // The daemon's exploration path runs the engine over its warm cache:
  // compose that path over the daemon's cache directory for every study,
  // then report the per-connection memory growth of the finished epochs.
  void probe(Traced& traced) override {
    traced.last.clear();
    for (std::size_t j = 0; j < apps_.size(); ++j) {
      auto run = compose(j, kServeDir, traced.clock, "probe");
      take_layers(traced.clock, traced.probes);
      const std::string failure = check_composed(*run, traced.probes, traced);
      if (!failure.empty()) traced.mismatches.push_back(failure);
      traced.last.push_back(std::move(run));
    }
    add(traced.probes, "support.pool.busy_frac", 0.0);
    if (vm_kb_per_conn_.empty()) close_epoch();
    for (const double v : vm_kb_per_conn_) {
      add(traced.units, "serve.vm_kb_per_conn", v);
    }
  }

 private:
  UnitOutcome submit_unit(std::size_t slot, Traced* traced) {
    if (epoch_connections_ >= kEpochConnections) {
      close_epoch();
      daemon_.reset();
      // Hand the drained epoch's heap back, so the peak RSS is one
      // epoch's and not a function of how many epochs the window held.
      malloc_trim(0);
      start_daemon();
      start_epoch();
    }
    UnitOutcome out;
    out.mode = app_of(slot);
    const serve::SubmitRequest request =
        submit_request(apps_[out.mode], offset_);
    const auto start = Clock::now();
    if (traced != nullptr) {
      LayerClock::Scope scope(traced->clock, "unit", "bench");
      last_result_ =
          submit_once(kServeSocket, request, &traced->clock, "bench");
    } else {
      last_result_ = submit_once(kServeSocket, request, nullptr, "");
    }
    out.ms = ms_since(start);
    settle();
    ++epoch_connections_;
    out.executed[apps_[out.mode]] = last_result_.executed;
    out.failure =
        check_digest(apps_[out.mode], digest_of(last_result_.records));
    if (out.failure.empty() && last_result_.executed != 0) {
      out.failure = "warm submit executed " +
                    std::to_string(last_result_.executed) + " simulations";
    }
    return out;
  }

  void start_daemon() {
    daemon_ = std::make_unique<Daemon>(kServeSocket, kServeDir);
    daemon_connections_ = 0;
  }
  // Waits, untimed, until the daemon finished the session of the latest
  // connection, so the next unit's session never overlaps it. Overlapping
  // sessions make glibc hand the new session thread a fresh malloc arena,
  // and the peak RSS would then follow the overlaps' timing.
  void settle() {
    ++daemon_connections_;
    while (daemon_->sessions() < daemon_connections_) {
      std::this_thread::yield();
    }
  }

  void start_epoch() {
    epoch_connections_ = 0;
    epoch_vm_kb_ = proc_status_kb("VmSize");
  }
  void close_epoch() {
    if (epoch_connections_ == 0) return;
    vm_kb_per_conn_.push_back(
        vm_growth_kb(epoch_vm_kb_) /
        static_cast<double>(epoch_connections_));
  }

  std::unique_ptr<Daemon> daemon_;
  std::uint64_t daemon_connections_ = 0;
  std::size_t epoch_connections_ = 0;
  std::uint64_t epoch_vm_kb_ = 0;
  std::vector<double> vm_kb_per_conn_;
  serve::ResultFrame last_result_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"cold_unkeyed", "serve_resubmit"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cold_unkeyed") return std::make_unique<ColdWorkload>(seed);
  if (name == "serve_resubmit") return std::make_unique<ServeWorkload>(seed);
  return nullptr;
}

void measure_shared_layers(Workload& workload, Traced& traced) {
  const energy::EnergyModel& model = workload.model();

  // Calibration: every step-1 combination of every app on its
  // representative scenario through the kernel, against the modeled time.
  for (const std::string& app : kApps) {
    std::optional<core::CaseStudy> built;
    const core::CaseStudy* study = nullptr;
    for (std::size_t j = 0; j < workload.apps().size(); ++j) {
      if (workload.apps()[j] == app) study = &workload.studies()[j];
    }
    if (study == nullptr) {
      built = api::registry().make_study(app, study_options(workload.offset()));
      study = &*built;
    }
    const core::Scenario& scenario = study->scenarios.at(study->representative);
    const auto combos = ddt::enumerate_combinations(study->slot_kind_sets());
    const auto reference = traced.step1_of.find(app);
    std::vector<double> modeled, measured;
    LayerClock::Scope scope(traced.clock, "calibrate." + app, "probe");
    for (std::size_t i = 0; i < combos.size(); ++i) {
      auto [run, ms] = timed_run(*study, scenario, combos[i], app, traced.units);
      const energy::Metrics metrics = model.evaluate(run.total);
      modeled.push_back(metrics.time_s);
      measured.push_back(ms);
      if (reference == traced.step1_of.end()) continue;
      ++traced.replayed;
      if (i >= reference->second.size() ||
          !(reference->second[i].combo == combos[i]) ||
          !same_counters(run.total, reference->second[i].counters) ||
          !same_metrics(metrics, reference->second[i].metrics)) {
        traced.mismatches.push_back(app + ": step-1 " + combos[i].label());
      }
    }
    add(traced.units, "ddt.rank_tau." + app, kendall_tau(modeled, measured));
  }
  traced.clock.take();

  // Trace synthesis: each study built again from an empty trace store.
  for (const std::string& app : workload.apps()) {
    ddtr::net::TraceStore::global().clear();
    LayerClock::Scope scope(traced.clock, "nettrace.build", "probe");
    api::registry().make_study(app, study_options(workload.offset()));
  }
  take_layers(traced.clock, traced.units);

  // Cache keys, lookups and energy evaluation over the latest traced
  // unit's records.
  std::vector<std::pair<const core::Scenario*, const core::SimulationRecord*>>
      units;
  for (const auto& run : traced.last) {
    const auto scenarios = scenarios_by_label(*run->study);
    for (const auto* records : {&run->step1, &run->step2}) {
      for (const core::SimulationRecord& record : *records) {
        units.emplace_back(scenarios.at(record.scenario_label()), &record);
      }
    }
  }
  if (units.empty()) return;
  const auto per_call_ns = [&](const auto& body) {
    std::size_t calls = 0;
    const auto start = Clock::now();
    do {
      for (const auto& [scenario, record] : units) body(*scenario, *record);
      calls += units.size();
    } while (ms_since(start) < kMicroMinMs);
    return ms_since(start) * 1e6 / static_cast<double>(calls);
  };
  std::size_t sink = 0;
  LayerClock::Scope scope(traced.clock, "micro", "probe");
  add(traced.units, "core.cache.key_ns",
      per_call_ns([&](const core::Scenario& s, const core::SimulationRecord& r) {
        sink += core::SimulationCache::key_of(s, r.combo, model).size();
      }));
  core::SimulationCache cache;
  for (const auto& [scenario, record] : units) {
    cache.insert(core::SimulationCache::key_of(*scenario, record->combo, model),
                 *record);
  }
  add(traced.units, "core.cache.lookup_ns",
      per_call_ns([&](const core::Scenario& s, const core::SimulationRecord& r) {
        sink += cache.find(s, r.combo, model).has_value() ? 1 : 0;
      }));
  add(traced.units, "energy.evaluate_ns",
      per_call_ns([&](const core::Scenario&, const core::SimulationRecord& r) {
        sink += model.evaluate(r.counters).accesses;
      }));
  if (sink == 0) traced.mismatches.push_back("micro-timings saw no work");
}

}  // namespace perfbench
