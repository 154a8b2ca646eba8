// Golden counters: the modeled ProfileCounters of every (scenario,
// combination) of the four built-in studies, folded into one integer
// digest per study. Host-only changes (faster DDT bookkeeping, a new
// engine path, a different allocator) must leave every counter exactly
// where it was; any change that moves one changes a digest and fails here.
//
// Only the integer counters are hashed, never the formatted metrics, so
// the digests pin the accounting model itself, not the energy model's
// floating point. A deliberate accounting change bumps
// kDdtAccountingVersion and re-records these digests in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/ddtr.h"
#include "support/fnv_hash.h"

namespace ddtr::core {
namespace {

std::uint64_t study_digest(const std::string& app) {
  const CaseStudy study =
      api::registry().make_study(app, CaseStudyOptions{}.scaled(0.05));
  const energy::EnergyModel model = make_paper_energy_model();
  support::Fnv1a64 hash;
  for (const Scenario& scenario : study.scenarios) {
    for (const ddt::DdtCombination& combo :
         ddt::enumerate_combinations(study.slot_kind_sets())) {
      const prof::ProfileCounters c = simulate(scenario, combo, model).counters;
      hash.u64(c.reads).u64(c.writes).u64(c.bytes_read).u64(c.bytes_written);
      hash.u64(c.allocations).u64(c.deallocations).u64(c.live_bytes);
      hash.u64(c.peak_bytes).u64(c.cpu_ops);
    }
  }
  return hash.digest();
}

TEST(GoldenCounters, Route) {
  EXPECT_EQ(study_digest("route"), 0xe1512ea231b3725full);
}

TEST(GoldenCounters, Url) {
  EXPECT_EQ(study_digest("url"), 0x87a1cc63cec44912ull);
}

TEST(GoldenCounters, Ipchains) {
  EXPECT_EQ(study_digest("ipchains"), 0x0da52ac6f2b382d3ull);
}

TEST(GoldenCounters, Drr) {
  EXPECT_EQ(study_digest("drr"), 0xc0576db0557bd359ull);
}

}  // namespace
}  // namespace ddtr::core
