// ThreadPool and parallel_for. No instrumentation: lane utilisation is
// measured from outside (perfbench's support.pool.busy_frac), and support
// may not include obs (tools/lint/layers.lock).
#include "support/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace ddtr::support {

ThreadPool::ThreadPool(std::size_t parallelism) {
  if (parallelism > kMaxLanes) {
    throw std::invalid_argument("thread pool: " + std::to_string(parallelism) +
                                " lanes requested, at most " +
                                std::to_string(kMaxLanes) + " allowed");
  }
  const std::size_t lanes = resolve_jobs(parallelism);
  workers_.reserve(lanes > 0 ? lanes - 1 : 0);
  try {
    for (std::size_t i = 1; i < lanes; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // The destructor does not run for a half-built pool, and destroying
    // a joinable std::thread calls std::terminate.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() noexcept {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t ThreadPool::resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

// Shared state of one parallel_for call. Heap-allocated and owned jointly
// by the caller and every submitted worker task (shared_ptr), so a worker
// finishing after the caller observed completion still touches live state.
struct ParallelForState {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};   // next unclaimed index
  std::size_t pending_tasks = 0;      // submitted worker tasks still running
  std::exception_ptr error;           // first exception, rethrown by caller
  std::mutex mu;
  std::condition_variable cv;

  // Claims and runs indices until the pile is exhausted. On an exception
  // the pile is poisoned (next jumps past n) so other lanes stop quickly.
  void drain() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        next.store(n, std::memory_order_relaxed);
      }
    }
  }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (pool.worker_count() == 0 || n == 1) {
    // Serial path: no shared state, no synchronization — byte-identical
    // behavior to the pre-parallel engine.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->body = &body;

  // No point waking more lanes than there are indices; the caller is one.
  const std::size_t helpers = std::min(pool.worker_count(), n - 1);
  state->pending_tasks = helpers;
  for (std::size_t t = 0; t < helpers; ++t) {
    pool.submit([state] {
      state->drain();
      {
        std::lock_guard<std::mutex> lock(state->mu);
        --state->pending_tasks;
      }
      state->cv.notify_one();
    });
  }

  state->drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] { return state->pending_tasks == 0; });
    // Taken out of the shared state so that the exception is freed on
    // this thread, not by a worker dropping the last state reference
    // (TSan cannot see the exception's own reference count).
    error = std::exchange(state->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool pool(jobs);
  parallel_for(pool, n, body);
}

}  // namespace ddtr::support
