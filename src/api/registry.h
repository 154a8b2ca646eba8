// Workload registry: the public entry point that makes case studies
// pluggable data instead of compiled-in special cases. A workload
// self-registers a stable name, a one-line description, and a factory
// turning CaseStudyOptions into a core::CaseStudy; every framework
// consumer (the `ddtr` CLI, the bench reproduction pass, user programs)
// enumerates the same registry instead of hardcoding the paper's four
// applications. The paper apps themselves are registered this way (see
// api/builtin_workloads.cc) — the methodology is application-agnostic, so
// nothing in the exploration path knows they are special.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/case_studies.h"
#include "core/simulation.h"

namespace ddtr::api {

// Builds one study instance; `options` carries the trace length every
// workload honours (CaseStudyOptions::packets_for of its full length).
using StudyFactory =
    std::function<core::CaseStudy(const core::CaseStudyOptions&)>;

struct WorkloadInfo {
  std::string name;         // stable lookup key, e.g. "route" (CLI --app)
  std::string description;  // one line, shown by `ddtr apps`
  StudyFactory factory;
};

// An ordered, name-keyed collection of workloads. Thread-safe: reads and
// registrations may come from any thread (registration normally happens
// during startup, lookups from exploration fan-out lanes).
class StudyRegistry {
 public:
  // Registers a workload. Throws std::invalid_argument when the name is
  // empty, the factory is null, or the name is already taken.
  void add(WorkloadInfo info);

  bool contains(const std::string& name) const;
  std::size_t size() const;
  // Workload names in registration order (the built-ins register in the
  // paper's Table 1 order: route, url, ipchains, drr).
  std::vector<std::string> names() const;
  // Throws std::out_of_range for unknown names. The returned reference
  // stays valid for the registry's lifetime (workloads are never removed).
  const WorkloadInfo& info(const std::string& name) const;
  // Looks up `name` and runs its factory. Throws std::out_of_range for
  // unknown names.
  core::CaseStudy make_study(const std::string& name,
                             const core::CaseStudyOptions& options) const;

 private:
  mutable std::mutex mu_;
  // info() hands out long-lived references, so entries live on the heap
  // where vector growth cannot move them.
  std::vector<std::unique_ptr<WorkloadInfo>> workloads_;
  std::unordered_map<std::string, std::size_t> index_;
};

// The process-wide registry, with the four paper workloads already
// registered. User programs add their own:
//
//   api::registry().add({"mydevice", "my appliance's packet path",
//                        [](const core::CaseStudyOptions& o) { ... }});
StudyRegistry& registry();

namespace detail {
// Defined in api/builtin_workloads.cc; called once by registry().
void register_builtin_workloads(StudyRegistry& registry);
}  // namespace detail

}  // namespace ddtr::api

