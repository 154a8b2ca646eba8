// The `ddtr serve` daemon: a long-lived exploration service that keeps
// the persistent simulation cache, the generated traces and the thread
// pool warm across study submissions. Clients connect over a unix-domain
// socket (see serve/protocol.h), submit registered workloads with builder
// knobs, and get one reply per submit: the report `ddtr explore` prints
// (core::print_report) and the serialized records. Results are not kept;
// a resubmission replays from the warm cache (zero executed simulations,
// byte-identical records). start() seeds that cache from the cache
// directory with one read (PersistentSimulationCache::seed), and every job
// hands cache, pool and persistent cache to ExplorationEngine::explore.
//
// Concurrency model: serve_forever() is one poll(2) loop over the
// listening socket, a wake pipe and every open connection, and one run
// thread explores, one job at a time: each run has the pool and the
// PersistentSimulationCache (one explore() at a time) to itself. Only the
// loop touches connections, the job table and the log. It decodes frames
// from each connection's input buffer as bytes arrive, answers Stats at
// once and queues a Submit; the run thread takes the queue's
// front and hands the encoded reply back through one slot and a wake
// byte. Replies leave by non-blocking sends from an output buffer, and a
// connection is not read while its submit is pending or a reply unsent,
// so replies leave in request order and a slow reader stalls no one. The
// three bounds below (kMaxRequestBytes, kMaxConnections, kFrameDeadline)
// limit what a misbehaving client costs.
//
// Shutdown: request_stop() wakes the loop at once (there is no shutdown
// frame). The run thread finishes its current job, which stores into the
// cache file; queued jobs are dropped, connections close and the socket
// file goes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
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
  // Daemon log sink (nullptr = silent); start() and the loop write it.
  std::ostream* log = nullptr;
  // Optional span tracer (see src/obs/trace.h): job lifecycles plus
  // every exploration's spans. Borrowed; null disables tracing.
  obs::TraceWriter* trace = nullptr;
};

class Server {
 public:
  // Jobs the table keeps. Past this many, the oldest finished (done or
  // failed) jobs are dropped; queued and running jobs are never dropped,
  // and jobs_submitted still counts every job.
  static constexpr std::size_t kJobTableCap = 64;
  // Largest client frame payload (Submit and Stats are tens of bytes): a
  // header announcing more is corrupt, and its connection closes.
  static constexpr std::uint64_t kMaxRequestBytes = 4096;
  // Open connections; the one past them reads an Error frame and a close.
  // Each has at most one unfinished job, so those always fit the table.
  static constexpr std::size_t kMaxConnections = kJobTableCap;
  // Time a client frame may take from its first byte to its last, or its
  // connection closes. Idle connections are never evicted.
  static constexpr std::chrono::seconds kFrameDeadline{1};

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Seeds the warm cache, spawns the pool, binds + listens on the socket.
  // Throws std::runtime_error on socket failure or an over-long path.
  void start();

  // The poll loop; returns once a stop was requested, the running job
  // finished and every connection closed. Requires start().
  void serve_forever();

  // Requests a drain-and-exit from any thread, before or after start().
  // Async-signal-safe (an atomic store and a write(2) to the wake pipe,
  // errno preserved), so a SIGTERM handler may call it directly.
  void request_stop() noexcept;
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  // Connections fully served so far (accept through close).
  std::uint64_t sessions_served() const noexcept {
    return sessions_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  // One open connection; only the loop touches it.
  struct Connection {
    int fd = -1;  // -1 once closed
    std::uint64_t id = 0;
    bool pending = false;  // its Submit is queued or running
    bool closing = false;  // close once `out` is sent
    std::string in{};      // bytes received, not yet decoded
    std::string out{};     // reply bytes, sent up to `sent`
    std::size_t sent = 0;
    // When the frame begun in `in` must be whole (max() = none begun).
    Clock::time_point deadline = Clock::time_point::max();
    bool reading() const { return !pending && !closing && out.empty(); }
  };

  // A submission through the run thread, which fills the result fields.
  struct Work {
    std::uint64_t job_id = 0;
    std::uint64_t conn_id = 0;
    SubmitRequest request{};
    bool ok = false;
    std::uint64_t executed = 0;
    std::string reply{};  // the encoded Result or Error frame
  };

  // Reads what `c`'s socket holds, serves its whole frames and sends what
  // it can; false when the connection is over.
  bool service(Connection& c, short revents);
  void serve_frame(Connection& c, const Frame& frame);
  void close_connection(Connection& c);

  // The hand-off: start_next_job() passes the queue's front to the run
  // thread, finish_job() takes its reply back from done_.
  void start_next_job();
  void finish_job();
  // Explores `work`'s study (the serve.job span) and encodes its reply.
  void run_job(Work& work);
  void wake() noexcept;

  // Milliseconds of steady-clock time since start() finished.
  std::uint64_t uptime_ms() const;
  // Validates a submission; returns a non-empty error message on rejection.
  std::string validate(const SubmitRequest& request) const;
  void log_line(const std::string& line);

  ServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  // Self-pipe (read end, write end), non-blocking: request_stop() and the
  // run thread write a byte to wake_w_, the loop polls wake_r_.
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::atomic<std::uint64_t> sessions_{0};
  // Uptime baseline, fixed at the end of start().
  Clock::time_point boot_time_{};

  // Warm state, handed to every run's explore() on the run thread.
  core::SimulationCache cache_;
  std::optional<core::PersistentSimulationCache> persistent_;
  std::optional<support::ThreadPool> pool_;

  // The loop's state. The job table's rows are what `stats` lists.
  std::vector<Connection> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, JobStats> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::deque<Work> queue_;  // its front is running while busy_
  bool busy_ = false;

  // The run thread's reply slot, then the run thread: last, it joins first.
  std::mutex handoff_mu_;
  std::optional<Work> done_;
  std::optional<support::ThreadPool> runner_;
};

}  // namespace ddtr::serve

