// Persistent simulation logs. The paper's tool flow writes every
// simulation's counters to log files which the step-3 Perl tool then
// post-processes ("processes the Gigabytes of the log files produced by
// previous steps", §3.3); this module is that interchange format: a
// line-oriented text file of SimulationRecords that survives round-trips
// and can be merged across exploration runs.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/simulation.h"

namespace ddtr::core {

class ResultLog {
 public:
  ResultLog() = default;

  void append(const SimulationRecord& record) { records_.push_back(record); }
  void append_all(const std::vector<SimulationRecord>& records);

  const std::vector<SimulationRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  // Records of one application only, its name matched ignoring ASCII
  // case: records carry the display name ("URL"), the registry the
  // lowercase one ("url").
  std::vector<SimulationRecord> for_app(const std::string& app_name) const;

  // Line-oriented text serialization (version-tagged header, one record
  // per line). Numbers are written as the classic-locale stream would
  // write them (doubles as %g with 6 significant digits) and read back
  // under the classic locale, whatever the global or stream locale is.
  void save(std::ostream& os) const;
  static ResultLog load(std::istream& is);

  // The bytes save() writes for a log holding `parts` back to back,
  // rendered without copying the records into a ResultLog first.
  static std::string render(
      std::initializer_list<std::span<const SimulationRecord>> parts);

 private:
  std::vector<SimulationRecord> records_;
};

}  // namespace ddtr::core

