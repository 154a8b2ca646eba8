// Run-time dynamic-memory profiling, the measurement substrate of the whole
// methodology. Every DDT implementation reports each underlying memory touch
// (pointer hop, header read, record read/write) and every heap allocation
// here; the energy/time models in src/energy consume the resulting counters.
//
// This mirrors the "profile object attached to each candidate DDT" of the
// paper's step 1: the same application code, run with different DDT
// implementations, produces different MemoryProfile contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace ddtr::prof {

// Raw counters gathered during one simulation run.
struct ProfileCounters {
  std::uint64_t reads = 0;           // number of memory read accesses
  std::uint64_t writes = 0;          // number of memory write accesses
  std::uint64_t bytes_read = 0;      // total bytes read
  std::uint64_t bytes_written = 0;   // total bytes written
  std::uint64_t allocations = 0;     // heap allocation events
  std::uint64_t deallocations = 0;   // heap deallocation events
  std::uint64_t live_bytes = 0;      // currently allocated bytes
  std::uint64_t peak_bytes = 0;      // maximum of live_bytes over the run
  std::uint64_t cpu_ops = 0;         // non-memory work (compares, arithmetic)

  std::uint64_t accesses() const noexcept { return reads + writes; }

  // Element-wise sum. Peaks are summed too: profiles being combined
  // describe disjoint coexisting memories (e.g. the two dominant DDTs of
  // one application), so the total footprint bound is the sum of the
  // individual bounds.
  ProfileCounters& operator+=(const ProfileCounters& other) noexcept;
  // Element-wise inverse of +=: (a += b) -= b == a for any a, b (the
  // fields wrap like unsigned arithmetic, so no order of operations can
  // lose bits). Splits a run's total into its per-structure parts and the
  // CPU remainder.
  ProfileCounters& operator-=(const ProfileCounters& other) noexcept;

  bool operator==(const ProfileCounters&) const noexcept = default;
};

// Prints every field by name ("reads=3 writes=2 ..."), so a failed
// EXPECT_EQ on two counter sets says which counter moved.
std::ostream& operator<<(std::ostream& os, const ProfileCounters& c);

// Mutable profile handed to DDT containers and application kernels.
// Deliberately lock-free and unsynchronized: each simulation owns its
// profiles exclusively (they live on the app's run() stack), which is what
// lets the parallel explorer run simulations concurrently without any
// contention — the parallel analogue of the paper's tool running
// simulations as independent processes. Never share one MemoryProfile
// between concurrent simulations.
class MemoryProfile {
 public:
  MemoryProfile() = default;
  explicit MemoryProfile(std::string name) : name_(std::move(name)) {}

  void record_read(std::size_t bytes, std::size_t count = 1) noexcept {
    counters_.reads += count;
    counters_.bytes_read += bytes * count;
  }

  void record_write(std::size_t bytes, std::size_t count = 1) noexcept {
    counters_.writes += count;
    counters_.bytes_written += bytes * count;
  }

  void record_cpu_ops(std::uint64_t ops) noexcept { counters_.cpu_ops += ops; }

  void on_alloc(std::size_t bytes) noexcept {
    ++counters_.allocations;
    counters_.live_bytes += bytes;
    if (counters_.live_bytes > counters_.peak_bytes) {
      counters_.peak_bytes = counters_.live_bytes;
    }
  }

  void on_free(std::size_t bytes) noexcept {
    ++counters_.deallocations;
    counters_.live_bytes -= bytes <= counters_.live_bytes
                                ? bytes
                                : counters_.live_bytes;
  }

  // Charges `extra` more copies of everything charged since `before` (an
  // earlier counters() snapshot): reads, writes, their bytes and CPU ops.
  // A kernel whose operation block costs the same every time it recurs
  // runs it once and weights it by its multiplicity. Throws
  // std::logic_error if the block allocated or freed: footprint events do
  // not scale.
  void repeat_since(const ProfileCounters& before, std::uint64_t extra);

  const ProfileCounters& counters() const noexcept { return counters_; }
  const std::string& name() const noexcept { return name_; }

  void reset() noexcept { counters_ = ProfileCounters{}; }

 private:
  std::string name_;
  ProfileCounters counters_;
};

}  // namespace ddtr::prof

