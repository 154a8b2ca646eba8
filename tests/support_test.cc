// Support-layer tests: deterministic RNG streams, distribution sanity,
// text-table and CSV formatting, checked binary readers, and the thread
// pool's lane cap and spawn-failure cleanup.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "comma_locale.h"
#include "support/binary_io.h"
#include "support/csv.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/thread_pool.h"

// Sanitizer runtimes reserve terabytes of shadow address space, so an
// address-space limit breaks them long before the code under test runs.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DDTR_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DDTR_TEST_UNDER_SANITIZER 1
#endif
#endif

namespace ddtr::support {
namespace {

TEST(BinaryIo, StringRoundTrips) {
  std::string bytes;
  const std::string value("bin\x00\xff-data", 9);
  append_string(bytes, value);
  ByteReader in(bytes);
  std::string out;
  ASSERT_TRUE(read_string(in, out));
  EXPECT_EQ(out, value);
  EXPECT_TRUE(in.at_end());
}

TEST(BinaryIo, StringLengthAboveCapIsRejected) {
  std::string bytes;
  append_string(bytes, "abcdef");
  ByteReader in(bytes);
  std::string out;
  EXPECT_FALSE(read_string(in, out, /*max_size=*/3));
}

// Regression: a corrupt length prefix claiming almost max_size bytes
// used to be trusted with an up-front resize — a 16-byte hostile
// payload could force a near-1-GiB allocation before the read failed.
// The reader now checks the claim against the bytes it holds first, so
// the failure must leave no storage behind.
TEST(BinaryIo, HostileLengthPrefixCannotForceHugeAllocation) {
  std::string bytes;
  append_u64(bytes, (1ull << 30) - 1);  // claimed length, just under the cap
  bytes += "only-a-few-bytes";
  ByteReader in(bytes);
  std::string out;
  EXPECT_FALSE(read_string(in, out));
  EXPECT_LT(out.capacity(), 1u << 20)
      << "failed read must not have pre-allocated the claimed length";
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  EXPECT_NE(rng.next_u64(), 0u);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(17);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 2.0, 0.05);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.2, 40.0, 1500.0);
    EXPECT_GE(v, 40.0 * 0.999);
    EXPECT_LE(v, 1500.0 * 1.001);
  }
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, ZeroSkewIsRoughlyUniform) {
  Rng rng(31);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Zipf, SingleElement) {
  Rng rng(37);
  ZipfSampler zipf(1, 1.0);
  EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name       value"), std::string::npos);
  EXPECT_NE(s.find("long-name  22"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.to_string().find('x'), std::string::npos);
}

TEST(Format, Percent) { EXPECT_EQ(format_percent(0.873), "87.3%"); }

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(4578103), "4,578,103");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
}

// format_double prints what a classic-locale std::fixed stream prints, and
// a grouping global locale (which a stream built inside it would pick up)
// changes none of its bytes, nor those of the helpers built on it.
TEST(Format, DoubleIsTheClassicFixedStreamUnderAnyGlobalLocale) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, int>> cases = {
      {0.125, 2}, {2.5, 0},  {-0.0, 2}, {1e21, 2},  {5e-324, 2},
      {DBL_MAX, 2}, {inf, 2}, {-inf, 2}, {nan, 2}, {12345.678, 2}};
  std::vector<std::string> classic;
  for (const auto& [value, precision] : cases) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::fixed << std::setprecision(precision) << value;
    classic.push_back(os.str());
    EXPECT_EQ(format_double(value, precision), classic.back())
        << value << " at precision " << precision;
  }

  const test_support::ScopedCommaLocale comma;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(format_double(cases[i].first, cases[i].second), classic[i])
        << cases[i].first << " at precision " << cases[i].second;
  }
  EXPECT_EQ(format_double(12345.678, 2), "12345.68");
  EXPECT_EQ(format_percent(0.873), "87.3%");
  EXPECT_EQ(format_bytes(5000000), "4.8 MiB");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b,c"});
  EXPECT_EQ(os.str(), "a,\"b,c\"\n");
}

TEST(ThreadPool, ExplicitLaneCountAboveTheCapIsRejected) {
  EXPECT_THROW({ ThreadPool pool(kMaxLanes + 1); }, std::invalid_argument);
  EXPECT_THROW({ ThreadPool pool(100000); }, std::invalid_argument);
  // 0 means one lane per hardware thread and is never rejected.
  ThreadPool per_hardware_thread(0);
  EXPECT_EQ(per_hardware_thread.parallelism(), ThreadPool::resolve_jobs(0));
  ThreadPool two(2);
  EXPECT_EQ(two.parallelism(), 2u);
}

TEST(ThreadPool, SpawnFailureJoinsStartedLanesAndRethrows) {
#ifdef DDTR_TEST_UNDER_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS cannot be lowered under a sanitizer runtime";
#endif
  // In a child with an address-space limit a few worker stacks above the
  // current size, a kMaxLanes pool must fail part-way through spawning.
  // A pool that leaks its started (joinable) lanes aborts the child.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    rlimit limit{};
    rlim_t vm_pages = 0;  // the first field of statm: the VM size in pages
    std::ifstream("/proc/self/statm") >> vm_pages;
    const rlim_t cap = vm_pages * ::sysconf(_SC_PAGESIZE) + (64u << 20);
    if (vm_pages == 0 || ::getrlimit(RLIMIT_AS, &limit) != 0) ::_exit(3);
    if (limit.rlim_max == RLIM_INFINITY || cap < limit.rlim_max) {
      limit.rlim_cur = cap;
    }
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(3);
    try {
      ThreadPool pool(kMaxLanes);
      ::_exit(2);  // every spawn succeeded: the limit did not bite
    } catch (const std::system_error&) {
    }
    // The started lanes were joined and their stacks released: a small
    // pool fits again.
    try {
      ThreadPool pool(2);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died on signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace ddtr::support
