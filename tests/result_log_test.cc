// ResultLog persistence tests: the log files the step-3 post-processing
// consumes must round-trip exactly, keep the bytes of the classic-locale
// stream rendering and ignore the global locale.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comma_locale.h"
#include "core/result_log.h"
#include "corrupt_bytes.h"

namespace ddtr::core {
namespace {

SimulationRecord sample_record(const std::string& app,
                               const std::string& combo_first,
                               double energy) {
  SimulationRecord r;
  r.app_name = app;
  r.combo = ddt::DdtCombination(
      {*ddt::parse_ddt_kind(combo_first), ddt::DdtKind::kDllOfArraysRoving});
  r.network = "dart-berry";
  r.config = "table=128";
  r.metrics = {energy, 0.125, 12345, 67890};
  r.counters.reads = 100;
  r.counters.writes = 50;
  r.counters.bytes_read = 800;
  r.counters.bytes_written = 400;
  r.counters.allocations = 7;
  r.counters.deallocations = 7;
  r.counters.peak_bytes = 67890;
  r.counters.cpu_ops = 999;
  return r;
}

TEST(ResultLog, RoundTripPreservesEverything) {
  ResultLog log;
  log.append(sample_record("Route", "AR", 1.5));
  log.append(sample_record("URL", "SLL(ARO)", 2.5));

  std::stringstream ss;
  log.save(ss);
  const ResultLog loaded = ResultLog::load(ss);

  ASSERT_EQ(loaded.size(), 2u);
  const SimulationRecord& r = loaded.records()[0];
  EXPECT_EQ(r.app_name, "Route");
  EXPECT_EQ(r.combo.label(), "AR+DLL(ARO)");
  EXPECT_EQ(r.network, "dart-berry");
  EXPECT_EQ(r.config, "table=128");
  EXPECT_DOUBLE_EQ(r.metrics.energy_mj, 1.5);
  EXPECT_DOUBLE_EQ(r.metrics.time_s, 0.125);
  EXPECT_EQ(r.metrics.accesses, 12345u);
  EXPECT_EQ(r.metrics.footprint_bytes, 67890u);
  EXPECT_EQ(r.counters.cpu_ops, 999u);
  EXPECT_EQ(loaded.records()[1].combo.label(), "SLL(ARO)+DLL(ARO)");
}

TEST(ResultLog, EmptyLogRoundTrips) {
  ResultLog log;
  std::stringstream ss;
  log.save(ss);
  EXPECT_EQ(ResultLog::load(ss).size(), 0u);
}

TEST(ResultLog, EmptyConfigFieldSurvives) {
  ResultLog log;
  SimulationRecord r = sample_record("URL", "AR", 1.0);
  r.config.clear();
  log.append(r);
  std::stringstream ss;
  log.save(ss);
  EXPECT_EQ(ResultLog::load(ss).records()[0].config, "");
}

TEST(ResultLog, ForAppFilters) {
  ResultLog log;
  log.append(sample_record("Route", "AR", 1));
  log.append(sample_record("URL", "AR", 2));
  log.append(sample_record("Route", "DLL", 3));
  EXPECT_EQ(log.for_app("Route").size(), 2u);
  EXPECT_EQ(log.for_app("URL").size(), 1u);
  EXPECT_TRUE(log.for_app("nope").empty());
}

TEST(ResultLog, AppendAllMerges) {
  ResultLog a;
  a.append(sample_record("Route", "AR", 1));
  ResultLog b;
  b.append_all(a.records());
  b.append_all(a.records());
  EXPECT_EQ(b.size(), 2u);
}

// load() splits fields on any classic-locale whitespace, so save() must
// escape every such character in a free-form field, or the record reloads
// with its fields shifted.
TEST(ResultLog, EveryWhitespaceCharacterInAFieldRoundTripsEscaped) {
  for (const char ch : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    SCOPED_TRACE(static_cast<int>(ch));
    ResultLog log;
    SimulationRecord r = sample_record("Route", "AR", 0.5);
    r.config = std::string("table") + ch + "128";
    r.network = std::string(1, ch) + "net";
    log.append(r);
    std::stringstream ss;
    log.save(ss);
    const ResultLog loaded = ResultLog::load(ss);
    ASSERT_EQ(loaded.size(), 1u);
    const SimulationRecord& back = loaded.records()[0];
    EXPECT_EQ(back.config, "table_128");
    EXPECT_EQ(back.network, "_net");
    EXPECT_EQ(back.combo.label(), "AR+DLL(ARO)");
    EXPECT_EQ(back.metrics.energy_mj, 0.5);
    EXPECT_EQ(back.metrics.time_s, 0.125);
    EXPECT_EQ(back.counters.cpu_ops, 999u);
  }
}

TEST(ResultLog, RejectsGarbage) {
  std::stringstream ss("hello world");
  EXPECT_THROW(ResultLog::load(ss), std::runtime_error);
}

TEST(ResultLog, RejectsTruncated) {
  ResultLog log;
  log.append(sample_record("Route", "AR", 1));
  std::stringstream ss;
  log.save(ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(ResultLog::load(truncated), std::runtime_error);
}

TEST(ResultLog, RejectsUnknownDdtKind) {
  // An unknown kind, and an empty part after a trailing '+', both fail
  // with the label named.
  for (const std::string label : {"AR+NOPE", "AR+"}) {
    std::stringstream ss("ddtr-log 1 1\nRoute " + label +
                         " net - 1 1 1 1 1 1 1 1 1 1 1 1\n");
    try {
      ResultLog::load(ss);
      ADD_FAILURE() << "accepted combination " << label;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(label), std::string::npos)
          << e.what();
    }
  }
}

// The stream construction save() used to be, kept here as the byte
// oracle: a classic-imbued ostringstream with operator<<. Every character
// the classic locale calls whitespace (what load() splits on) becomes '_'.
std::string stream_escape(const std::string& s) {
  if (s.empty()) return "-";
  std::string out;
  for (char ch : s) {
    out += std::isspace(ch, std::locale::classic()) ? '_' : ch;
  }
  return out;
}

std::string stream_reference(const ResultLog& log) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "ddtr-log 1 " << log.size() << '\n';
  for (const SimulationRecord& r : log.records()) {
    os << stream_escape(r.app_name) << ' ' << stream_escape(r.combo.label())
       << ' ' << stream_escape(r.network) << ' ' << stream_escape(r.config)
       << ' ' << r.metrics.energy_mj << ' ' << r.metrics.time_s << ' '
       << r.metrics.accesses << ' ' << r.metrics.footprint_bytes << ' '
       << r.counters.reads << ' ' << r.counters.writes << ' '
       << r.counters.bytes_read << ' ' << r.counters.bytes_written << ' '
       << r.counters.allocations << ' ' << r.counters.deallocations << ' '
       << r.counters.peak_bytes << ' ' << r.counters.cpu_ops << '\n';
  }
  return os.str();
}

// Doubles at the edges of %g: zero, exponent switch-over both ways,
// rounding, the 6-digit boundary, huge, subnormal, the largest finite and
// the widest ("-1.79769e+308").
ResultLog edge_value_log() {
  const std::vector<double> values = {0.0,      1e-7,      0.1 + 0.2,
                                      123456.5, 1234567.0, 1e21,
                                      5e-324,   DBL_MAX,   -DBL_MAX};
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ResultLog log;
  for (std::size_t i = 0; i < values.size(); ++i) {
    SimulationRecord r = sample_record("Route", "AR", values[i]);
    r.metrics.time_s = values[values.size() - 1 - i];
    r.metrics.accesses = kMax;
    r.counters.reads = kMax;
    r.counters.cpu_ops = kMax - i;
    if (i == 1) r.config.clear();
    if (i == 2) r.network = "two words";
    if (i == 3) r.combo = ddt::DdtCombination{};  // zero slots: "-"
    if (i == 4) r.config = "table\t128\r";
    log.append(r);
  }
  return log;
}

TEST(ResultLog, SaveMatchesTheClassicStreamByteForByte) {
  const ResultLog log = edge_value_log();
  std::ostringstream saved;
  log.save(saved);
  EXPECT_EQ(saved.str(), stream_reference(log));
  EXPECT_EQ(saved.str(), ResultLog::render({log.records()}));
}

TEST(ResultLog, RenderConcatenatesPartsLikeOneLog) {
  const ResultLog log = edge_value_log();
  const std::vector<SimulationRecord>& all = log.records();
  const std::vector<SimulationRecord> head(all.begin(), all.begin() + 3);
  const std::vector<SimulationRecord> tail(all.begin() + 3, all.end());
  EXPECT_EQ(ResultLog::render({head, tail}), stream_reference(log));
}

TEST(ResultLog, GlobalLocaleChangesNoBytesAndRoundTrips) {
  const ResultLog log = edge_value_log();
  std::ostringstream classic;
  log.save(classic);

  const test_support::ScopedCommaLocale comma;
  // A stream built now carries the grouping locale; the log must not.
  std::stringstream ss;
  log.save(ss);
  EXPECT_EQ(ss.str(), classic.str());
  const ResultLog loaded = ResultLog::load(ss);
  ASSERT_EQ(loaded.size(), log.size());
  std::ostringstream resaved;
  loaded.save(resaved);
  EXPECT_EQ(resaved.str(), classic.str());
  EXPECT_EQ(loaded.records()[2].metrics.energy_mj, 0.3);
  EXPECT_EQ(loaded.records()[0].metrics.accesses,
            std::numeric_limits<std::uint64_t>::max());
  // load() hands the stream its own locale back.
  EXPECT_EQ(ss.getloc(), std::locale());
}

// Seeded corruption of a saved log (byte flips, truncations, an inserted
// digit or '-'): every input either loads or throws std::runtime_error,
// never another exception, a crash or a hang.
TEST(ResultLog, CorruptionSweepLoadsOrThrowsRuntimeError) {
  ResultLog log;
  log.append(sample_record("Route", "SLL", 1.5));
  log.append(sample_record("URL", "AR", 0.25));
  log.append(sample_record("DRR", "HASH", 3.0));
  std::ostringstream os;
  log.save(os);
  const std::string intact = os.str();

  support::Rng rng(0x1065eedull);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::uint64_t kind = rng.uniform(0, test_support::kMutationKinds - 1);
    std::istringstream is(test_support::corrupt_bytes(intact, kind, rng));
    try {
      ResultLog::load(is);
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << "iteration " << iter << ", mutation " << kind
                    << ": load threw something other than runtime_error";
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ddtr::core
