// Exploration session: the public way to drive the three-step methodology
// on one case study. Wraps core::ExplorationEngine behind chainable
// options and owns the resulting report:
//
//   api::Exploration session(api::registry().make_study("url", options));
//   session.jobs(4)
//       .survivor_cap(0.2)
//       .on_progress([](const core::StepProgress& p) { ... });
//   const core::ExplorationReport& report = session.run();
//
// The progress observer fires per simulation within each step (see
// core::StepProgress). Reports are bit-identical at every jobs count,
// with or without an observer.
//
// Distributed execution (see src/dist/): shard(i, n) turns run() into one
// worker of an n-way sharded exploration (requires cache_dir — shards
// meet only through cache segments). Once every shard has run and
// dist::SegmentMerger has merged the segments, an unsharded run over the
// same cache_dir replays everything: zero executed simulations, a report
// byte-identical to a single-process run.
// cancel() cooperatively stops a running exploration from an observer,
// another thread or a signal handler; the cancelled run still checkpoints
// its executed records to the persistent cache.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/explorer.h"
#include "core/simulation.h"
#include "energy/energy_model.h"

namespace ddtr::api {

class Exploration {
 public:
  // Uses the paper's cost model (core::make_paper_energy_model).
  explicit Exploration(core::CaseStudy study);
  Exploration(core::CaseStudy study, energy::EnergyModel model);

  // Chainable option setters; see core::ExplorationOptions for semantics.
  Exploration& jobs(std::size_t lanes);
  Exploration& survivor_cap(double fraction);
  Exploration& champions_per_metric(std::size_t count);
  Exploration& step1_policy(core::Step1Policy policy);
  Exploration& memoize_simulations(bool enabled);
  // Persist the simulation cache across runs in this directory (empty =
  // in-memory only). A rerun with a warm cache executes zero simulations
  // and produces a byte-identical report; see
  // core::ExplorationOptions::cache_dir.
  Exploration& cache_dir(std::string dir);
  // Run as worker shard `index` of `count`: execute only this shard's
  // step-2 units and store them into the per-shard cache segment.
  // Requires cache_dir(). count <= 1 restores single-process execution.
  Exploration& shard(std::size_t index, std::size_t count);
  Exploration& on_progress(core::ProgressObserver observer);

  // Warm-serving session reuse (see src/serve/): memoize into the
  // externally-owned cache, append to the already-loaded persistent cache
  // and fan over the pool of `state`, all of which outlive this session
  // (executed counts are per-run deltas). Mutually exclusive with shard();
  // the owner must serialize run() calls sharing one persistent cache.
  Exploration& shared_state(core::SharedState* state);
  // Emit Chrome trace_event spans for this session's runs into an
  // externally-owned writer (see src/obs/trace.h). Null disables tracing;
  // purely observational — reports stay byte-identical either way.
  Exploration& trace_sink(obs::TraceWriter* sink);

  // Cooperative cancellation: stops starting new simulations (running
  // ones finish, executed records are checkpointed to the persistent
  // cache) and marks the resulting report cancelled. Thread-safe;
  // callable from a progress observer. One-way for the session.
  void cancel();
  // Replaces the session's cancel flag with an external one — e.g. a
  // process-global flag a SIGTERM handler flips (the ddtr shard worker's
  // checkpoint-on-terminate path).
  Exploration& cancel_token(std::shared_ptr<std::atomic<bool>> token);

  const core::CaseStudy& study() const noexcept { return study_; }
  const core::ExplorationOptions& options() const noexcept {
    return options_;
  }

  // Runs the three steps and stores the report. Calling run() again
  // re-explores (e.g. after changing options) and replaces the report.
  const core::ExplorationReport& run();

  bool has_report() const noexcept { return report_.has_value(); }
  // Typed access to the last run's report; throws std::logic_error when
  // run() has not completed yet.
  const core::ExplorationReport& report() const;

 private:
  core::CaseStudy study_;
  energy::EnergyModel model_;
  core::ExplorationOptions options_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::optional<core::ExplorationReport> report_;
};

}  // namespace ddtr::api

