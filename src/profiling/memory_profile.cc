#include "profiling/memory_profile.h"

#include <algorithm>
#include <stdexcept>

namespace ddtr::prof {

ProfileCounters& ProfileCounters::operator+=(
    const ProfileCounters& other) noexcept {
  reads += other.reads;
  writes += other.writes;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  allocations += other.allocations;
  deallocations += other.deallocations;
  live_bytes += other.live_bytes;
  peak_bytes += other.peak_bytes;
  cpu_ops += other.cpu_ops;
  return *this;
}

ProfileCounters& ProfileCounters::operator-=(
    const ProfileCounters& other) noexcept {
  reads -= other.reads;
  writes -= other.writes;
  bytes_read -= other.bytes_read;
  bytes_written -= other.bytes_written;
  allocations -= other.allocations;
  deallocations -= other.deallocations;
  live_bytes -= other.live_bytes;
  peak_bytes -= other.peak_bytes;
  cpu_ops -= other.cpu_ops;
  return *this;
}

void MemoryProfile::repeat_since(const ProfileCounters& before,
                                 std::uint64_t extra) {
  if (counters_.allocations != before.allocations ||
      counters_.deallocations != before.deallocations) {
    throw std::logic_error("MemoryProfile::repeat_since: the repeated block "
                           "allocated or freed");
  }
  counters_.reads += extra * (counters_.reads - before.reads);
  counters_.writes += extra * (counters_.writes - before.writes);
  counters_.bytes_read += extra * (counters_.bytes_read - before.bytes_read);
  counters_.bytes_written +=
      extra * (counters_.bytes_written - before.bytes_written);
  counters_.cpu_ops += extra * (counters_.cpu_ops - before.cpu_ops);
}

}  // namespace ddtr::prof
