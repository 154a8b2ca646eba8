#include "profiling/memory_profile.h"

#include <algorithm>

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

}  // namespace ddtr::prof
