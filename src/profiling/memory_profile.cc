#include "profiling/memory_profile.h"

#include <ostream>
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

std::ostream& operator<<(std::ostream& os, const ProfileCounters& c) {
  return os << "reads=" << c.reads << " writes=" << c.writes
            << " bytes_read=" << c.bytes_read
            << " bytes_written=" << c.bytes_written
            << " allocations=" << c.allocations
            << " deallocations=" << c.deallocations
            << " live_bytes=" << c.live_bytes
            << " peak_bytes=" << c.peak_bytes << " cpu_ops=" << c.cpu_ops;
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
