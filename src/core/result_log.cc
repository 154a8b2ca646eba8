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

// Scenario labels and combination labels never contain whitespace;
// free-form fields (app, network, config) map every whitespace character
// load() splits on (the classic locale's: space, \t, \n, \v, \f, \r) to
// '_', so a field always reads back as one field.
void append_escaped(std::string& out, const std::string& s) {
  if (s.empty()) {
    out += '-';
    return;
  }
  for (char ch : s) {
    const bool space = ch == ' ' || (ch >= '\t' && ch <= '\r');
    out += space ? '_' : ch;
  }
}

// The widest number fields: a %g double ("-1.23457e+308", 13 bytes) and a
// uint64 (20 digits), each after its separating space.
constexpr std::size_t kDoubleField = 1 + 13;
constexpr std::size_t kCountField = 1 + 20;
constexpr std::size_t kNumberTail = 2 * kDoubleField + 10 * kCountField + 1;

// std::to_chars writes what a classic-locale ostream writes by default:
// %g with 6 significant digits for a double, plain decimal for an integer.
char* put_number(char* p, double v) {
  *p++ = ' ';
  return std::to_chars(p, p + kDoubleField - 1, v,
                       std::chars_format::general, 6)
      .ptr;
}

char* put_number(char* p, std::uint64_t v) {
  *p++ = ' ';
  return std::to_chars(p, p + kCountField - 1, v).ptr;
}

// One record line, written in place: the four text fields, then the
// twelve numbers into a worst-case tail that is trimmed to what they took.
void append_record(std::string& out, const SimulationRecord& r) {
  append_escaped(out, r.app_name);
  out += ' ';
  if (r.combo.size() == 0) {
    out += '-';
  } else {
    r.combo.append_label(out);
  }
  out += ' ';
  append_escaped(out, r.network);
  out += ' ';
  append_escaped(out, r.config);
  const std::size_t start = out.size();
  out.resize(start + kNumberTail);
  char* p = out.data() + start;
  p = put_number(p, r.metrics.energy_mj);
  p = put_number(p, r.metrics.time_s);
  for (const std::uint64_t v :
       {r.metrics.accesses, r.metrics.footprint_bytes, r.counters.reads,
        r.counters.writes, r.counters.bytes_read, r.counters.bytes_written,
        r.counters.allocations, r.counters.deallocations,
        r.counters.peak_bytes, r.counters.cpu_ops}) {
    p = put_number(p, v);
  }
  *p++ = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
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
  // Built-in record lines run 100-135 bytes: one reservation covers them
  // and the last record's untrimmed number tail.
  out.reserve(out.size() + 24 + count * 144 + kNumberTail);
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), count).ptr);
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
