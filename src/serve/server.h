// The `ddtr serve` daemon: a long-lived exploration service that keeps
// the expensive state — the persistent simulation cache, the generated
// traces, the simulation thread pool — warm across study submissions
// instead of rebuilding them per CLI invocation. Clients connect over a
// unix-domain socket (see serve/protocol.h), submit registered workloads
// with builder knobs, and receive one reply per submit: the printed
// report (core::print_report, as `ddtr explore` prints it) and the
// serialized records. Results are not kept: a client that wants one
// again resubmits, and the warm cache replays it (zero executed
// simulations, byte-identical records).
//
// Warm state: start() seeds the daemon's SimulationCache from the cache
// directory with one read (PersistentSimulationCache::seed) and spawns
// its pool; every job hands that cache, pool and persistent cache to
// core::ExplorationEngine::explore, so a repeated study replays entirely
// from memory.
//
// Concurrency model: one accept loop and one thread per connection — but
// explorations SERIALIZE on run_mu_, because the daemon's
// PersistentSimulationCache admits one explore() at a time (store_new
// updates its key set; the file itself is guarded by the cache
// directory's lock). Every run therefore has the daemon's one pool to
// itself, its width fixed at start by ServerOptions::jobs. Sessions still
// multiplex: the protocol conversation and stats queries run
// concurrently, only the simulation phase queues; no socket write runs
// under run_mu_ (a job's reply is sent after its run releases it). The
// accept loop joins the finished session threads before each accept, so
// a long-lived daemon holds one thread per connection that was open at
// its last accept, not one per connection ever served.
//
// Shutdown: request_stop() is the one way to stop a daemon; there is no
// shutdown frame. It is async-signal-safe (an atomic store and a
// one-byte write(2) to a wake pipe — the CLI's SIGTERM/SIGINT handler
// calls it directly, an in-process owner from any thread). The byte wakes serve_forever() out of its accept
// poll at once; it then half-closes every open connection to unblock
// parked reads, joins the session threads and removes the socket file.
// There is nothing to flush: every run stored its new records into the
// cache file as it finished.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/persistent_cache.h"
#include "core/simulation_cache.h"
#include "serve/protocol.h"
#include "support/thread_pool.h"

namespace ddtr::obs {
class TraceWriter;
}

namespace ddtr::serve {

struct ServerOptions {
  // Unix-domain socket path the daemon binds (required; must fit
  // sockaddr_un::sun_path). A stale file at this path is replaced.
  std::string socket_path;
  // Persistent cache directory read once at start() and stored into by
  // every run; empty = in-memory warmth only (cache dies with the daemon).
  std::string cache_dir;
  // Simulation lanes of the daemon's pool (0 = one per hardware thread).
  std::size_t jobs = 0;
  // Daemon log sink (nullptr = silent).
  std::ostream* log = nullptr;
  // Optional span tracer (see src/obs/trace.h): connection and job
  // lifecycles plus every exploration's internal spans. Borrowed, never
  // owned; null disables tracing.
  obs::TraceWriter* trace = nullptr;
};

class Server {
 public:
  // Jobs the table keeps. Past this many, the oldest finished (done or
  // failed) jobs are dropped; queued and running jobs are never dropped,
  // and jobs_submitted still counts every job.
  static constexpr std::size_t kJobTableCap = 64;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Seeds the warm in-memory cache from the persistent cache, spawns the
  // pool, binds + listens on the socket. Throws
  // std::runtime_error on socket failure or an over-long path.
  void start();

  // Accept loop; returns once a stop was requested (request_stop()) and
  // every in-flight session has drained. Requires start().
  void serve_forever();

  // Requests a drain-and-exit from any thread, before or after start().
  // Async-signal-safe (an atomic store and a write(2) to the wake pipe,
  // errno preserved), so a SIGTERM handler may call it directly; it wakes
  // serve_forever() at once.
  void request_stop() noexcept;
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  // Connections fully served so far (handshake through close).
  std::uint64_t sessions_served() const noexcept {
    return sessions_.load(std::memory_order_relaxed);
  }

 private:
  // One job-table row: what `stats` lists, nothing more.
  struct Job {
    std::string app;
    std::string state = "queued";  // queued | running | done | failed
    std::uint64_t last_executed = 0;
    // Lifecycle timestamps for introspection (ms since daemon boot;
    // 0 = not reached).
    std::uint64_t submit_ms = 0;
    std::uint64_t start_ms = 0;
    std::uint64_t finish_ms = 0;
  };

  // Joins the session threads whose connections have closed (their ids
  // are queued in finished_); called from the accept loop.
  void reap_sessions();
  void handle_connection(int fd);
  // Serves one decoded client frame; returns false when the conversation
  // is over (a malformed or unexpected frame) and the connection should
  // close.
  bool handle_request(int fd, const Frame& frame);
  void handle_submit(int fd, const SubmitRequest& request);
  void handle_stats(int fd);

  // Milliseconds of steady-clock time since start() finished.
  std::uint64_t uptime_ms() const;

  // Runs the exploration of job `job_id` (serialized on run_mu_) and
  // records the result in the job table. Throws on exploration failure.
  ResultFrame run_job(std::uint64_t job_id, const SubmitRequest& request);

  // Drops the oldest finished jobs while the table holds more than
  // kJobTableCap. Requires jobs_mu_.
  void trim_jobs();

  // Validates a submission; returns a non-empty error message on rejection.
  std::string validate(const SubmitRequest& request) const;

  void log_line(const std::string& line);
  static bool send_error(int fd, const std::string& message);

  ServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  // Self-pipe (read end, write end), non-blocking: request_stop() writes
  // a byte to wake_w_, serve_forever() polls wake_r_ beside listen_fd_.
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::atomic<std::uint64_t> sessions_{0};
  // Uptime baseline, fixed at the end of start().
  std::chrono::steady_clock::time_point boot_time_{};

  // Warm state, handed to every run's explore(). run_mu_ admits one
  // exploration at a time.
  core::SimulationCache cache_;
  std::optional<core::PersistentSimulationCache> persistent_;
  std::optional<support::ThreadPool> pool_;
  std::mutex run_mu_;

  std::mutex jobs_mu_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_job_id_ = 1;

  std::mutex conn_mu_;
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> finished_;  // sessions awaiting a join
  std::unordered_set<int> open_fds_;

  std::mutex log_mu_;
};

}  // namespace ddtr::serve

