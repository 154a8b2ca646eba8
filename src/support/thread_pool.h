// Work-stealing parallel execution for the exploration engine. Every
// (scenario, combination) simulation is independent, so the explorer fans
// them over a fixed pool of workers that claim indices dynamically from a
// shared pile (self-scheduling: an idle worker "steals" the next undone
// index, so uneven simulation costs still balance). Results are written to
// index-addressed slots by the caller, which keeps parallel output
// deterministically ordered and bit-identical to the serial path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ddtr::support {

// Upper bound on an explicit lane count. Far above any host this runs on;
// its job is to turn a hostile or mistyped `jobs` (a CLI flag, a daemon
// submission) into a clean error instead of thousands of thread spawns.
inline constexpr std::size_t kMaxLanes = 1024;

// A fixed-size pool of worker threads consuming a shared task queue.
// `ThreadPool(jobs)` provides `jobs`-way parallelism: it spawns `jobs - 1`
// workers and the caller participates as the final lane inside
// parallel_for / parallel_map (so ThreadPool(1) spawns no threads at all
// and runs everything inline — the serial path stays thread-free).
class ThreadPool {
 public:
  // Throws std::invalid_argument when `parallelism` exceeds kMaxLanes
  // (0 — one lane per hardware thread — is always accepted). If a worker
  // spawn fails, the lanes already started are stopped and joined before
  // the std::system_error propagates.
  explicit ThreadPool(std::size_t parallelism);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total concurrency including the calling thread.
  std::size_t parallelism() const noexcept { return workers_.size() + 1; }
  // Worker threads owned by the pool (parallelism() - 1).
  std::size_t worker_count() const noexcept { return workers_.size(); }

  // Enqueues one task for any idle worker. Tasks must not throw.
  void submit(std::function<void()> task);

  // Maps the user-facing `jobs` knob to a concrete parallelism: 0 means
  // "one job per hardware thread"; anything else is taken literally.
  static std::size_t resolve_jobs(std::size_t jobs) noexcept;

 private:
  void worker_loop();
  void stop_and_join() noexcept;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs body(i) exactly once for every i in [0, n), spread over the pool's
// lanes plus the calling thread; returns when all n calls finished. The
// first exception thrown by `body` is rethrown on the caller after the
// remaining claimed iterations drain (unclaimed ones are skipped).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

// One-shot convenience: jobs-way parallel_for with a transient pool.
void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

// parallel_for writing fn(i) into slot i of the result vector — the
// deterministic-order building block the explorer's steps are built on.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace ddtr::support

