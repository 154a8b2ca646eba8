#include "core/result_log.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <istream>
#include <locale>
#include <optional>
#include <ostream>
#include <stdexcept>

namespace ddtr::core {

namespace {

// Scenario labels and combination labels never contain spaces; free-form
// fields (app, network, config) are written with a simple escape for
// robustness.
void append_escaped(std::string& out, const std::string& s) {
  if (s.empty()) {
    out += '-';
    return;
  }
  for (char ch : s) out += (ch == ' ' || ch == '\n') ? '_' : ch;
}

// std::to_chars writes what a classic-locale ostream writes by default:
// %g with 6 significant digits for a double, plain decimal for an integer.
void append_number(std::string& out, double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 6);
  out.append(buf, result.ptr);
}

void append_number(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

void append_record(std::string& out, const SimulationRecord& r) {
  append_escaped(out, r.app_name);
  out += ' ';
  append_escaped(out, r.combo.label());
  out += ' ';
  append_escaped(out, r.network);
  out += ' ';
  append_escaped(out, r.config);
  for (const double v : {r.metrics.energy_mj, r.metrics.time_s}) {
    out += ' ';
    append_number(out, v);
  }
  for (const std::uint64_t v :
       {r.metrics.accesses, r.metrics.footprint_bytes, r.counters.reads,
        r.counters.writes, r.counters.bytes_read, r.counters.bytes_written,
        r.counters.allocations, r.counters.deallocations,
        r.counters.peak_bytes, r.counters.cpu_ops}) {
    out += ' ';
    append_number(out, v);
  }
  out += '\n';
}

// Reads under the classic locale and hands the stream its own locale back.
class ClassicLocaleScope {
 public:
  explicit ClassicLocaleScope(std::istream& is)
      : is_(is), previous_(is.imbue(std::locale::classic())) {}
  ~ClassicLocaleScope() { is_.imbue(previous_); }

  ClassicLocaleScope(const ClassicLocaleScope&) = delete;
  ClassicLocaleScope& operator=(const ClassicLocaleScope&) = delete;

 private:
  std::istream& is_;
  std::locale previous_;
};

std::string unescape(const std::string& s) { return s == "-" ? "" : s; }

}  // namespace

void ResultLog::append_all(const std::vector<SimulationRecord>& records) {
  records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<SimulationRecord> ResultLog::for_app(
    const std::string& app_name) const {
  const auto lower = [](unsigned char ch) { return std::tolower(ch); };
  const auto same_app = [&](const std::string& name) {
    return std::ranges::equal(name, app_name, {}, lower, lower);
  };
  std::vector<SimulationRecord> out;
  for (const SimulationRecord& r : records_) {
    if (same_app(r.app_name)) out.push_back(r);
  }
  return out;
}

std::string ResultLog::render(
    std::initializer_list<std::span<const SimulationRecord>> parts) {
  std::uint64_t count = 0;
  for (const auto part : parts) count += part.size();
  std::string out = "ddtr-log 1 ";
  // Built-in record lines run 100-135 bytes: one reservation covers them.
  out.reserve(out.size() + 24 + count * 144);
  append_number(out, count);
  out += '\n';
  for (const auto part : parts) {
    for (const SimulationRecord& r : part) append_record(out, r);
  }
  return out;
}

void ResultLog::save(std::ostream& os) const {
  const std::string text = render({records_});
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

ResultLog ResultLog::load(std::istream& is) {
  const ClassicLocaleScope classic(is);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  is >> magic >> version >> count;
  if (magic != "ddtr-log" || version != 1) {
    throw std::runtime_error("not a ddtr result log");
  }
  ResultLog log;
  for (std::size_t i = 0; i < count; ++i) {
    SimulationRecord r;
    std::string app, combo, network, config;
    is >> app >> combo >> network >> config >> r.metrics.energy_mj >>
        r.metrics.time_s >> r.metrics.accesses >>
        r.metrics.footprint_bytes >> r.counters.reads >> r.counters.writes >>
        r.counters.bytes_read >> r.counters.bytes_written >>
        r.counters.allocations >> r.counters.deallocations >>
        r.counters.peak_bytes >> r.counters.cpu_ops;
    if (!is) throw std::runtime_error("truncated ddtr result log");
    r.app_name = unescape(app);
    r.network = unescape(network);
    r.config = unescape(config);

    const std::string label = unescape(combo);
    std::optional<ddt::DdtCombination> parsed = ddt::parse_combination(label);
    if (!parsed) {
      throw std::runtime_error("unknown DDT combination: " + label);
    }
    r.combo = std::move(*parsed);
    log.append(r);
  }
  return log;
}

}  // namespace ddtr::core
