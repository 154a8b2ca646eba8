#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <exception>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/registry.h"
#include "core/case_studies.h"
#include "core/explorer.h"
#include "core/report.h"
#include "nettrace/trace_store.h"
#include "obs/trace.h"
#include "support/table.h"

namespace ddtr::serve {

Server::Server(ServerOptions options) : options_(std::move(options)) {
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("serve: pipe2() failed");
  }
  wake_r_ = wake[0];
  wake_w_ = wake[1];
}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  ::close(wake_r_);
  ::close(wake_w_);
}

void Server::request_stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  // A full pipe (EAGAIN) already holds a wake byte. A signal handler may
  // run here, so the interrupted code's errno survives the write.
  const int saved_errno = errno;
  const char byte = 0;
  [[maybe_unused]] const ssize_t written = ::write(wake_w_, &byte, 1);
  errno = saved_errno;
}

void Server::log_line(const std::string& line) {
  if (!options_.log) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  (*options_.log) << "[serve] " << line << std::endl;
}

void Server::start() {
  if (options_.socket_path.empty()) {
    throw std::runtime_error("serve: --socket path is required");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error(
        "serve: socket path exceeds the unix-domain limit of " +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " +
        options_.socket_path);
  }

  if (!options_.cache_dir.empty()) {
    const std::size_t loaded =
        persistent_.emplace(options_.cache_dir).seed(cache_);
    log_line("cache dir '" + options_.cache_dir + "': " +
             std::to_string(loaded) + " records warm");
  }
  pool_.emplace(options_.jobs);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  addr.sun_family = AF_UNIX;
  options_.socket_path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("serve: cannot bind " + options_.socket_path);
  }
  if (::listen(listen_fd_, 16) != 0) {
    throw std::runtime_error("serve: listen() failed on " +
                             options_.socket_path);
  }
  log_line("listening on " + options_.socket_path + " (" +
           std::to_string(pool_->parallelism()) + " lanes)");
  // Uptime baseline for StatsReply and the job table's timestamps.
  boot_time_ = std::chrono::steady_clock::now();
}

std::uint64_t Server::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - boot_time_)
          .count());
}

void Server::serve_forever() {
  if (listen_fd_ < 0) throw std::logic_error("serve_forever before start()");

  while (!stop_requested()) {
    reap_sessions();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_r_, POLLIN, 0}};
    if (::poll(fds, 2, -1) <= 0) continue;  // EINTR: re-check the stop flag
    // A wake byte means a stop, even before this thread sees the flag.
    if (fds[1].revents != 0) break;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    open_fds_.insert(fd);
    threads_.emplace_back([this, fd] { handle_connection(fd); });
  }

  // Drain: half-close every open connection so parked recv_frame calls
  // return, then join the sessions.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (;;) {
    std::vector<std::thread> batch;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      batch.swap(threads_);
    }
    if (batch.empty()) break;
    for (std::thread& t : batch) t.join();
  }

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  log_line("stopped after " + std::to_string(sessions_served()) +
           " sessions");
}

void Server::reap_sessions() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (finished_.empty()) return;
    // A session queues its id while its thread is still in threads_ (it
    // was emplaced under this lock before it could run that far).
    const auto running = [this](const std::thread& t) {
      return std::find(finished_.begin(), finished_.end(), t.get_id()) ==
             finished_.end();
    };
    const auto split =
        std::partition(threads_.begin(), threads_.end(), running);
    std::move(split, threads_.end(), std::back_inserter(done));
    threads_.erase(split, threads_.end());
    finished_.clear();
  }
  // Outside the lock: a queued session may still be returning.
  for (std::thread& t : done) t.join();
}

void Server::handle_connection(int fd) {
  obs::SpanScope connection_span(options_.trace, "serve.connection", "serve");
  Frame frame;
  // Handshake: the first frame must be a version-matched hello.
  bool ok = recv_frame(fd, frame) == DecodeStatus::kOk &&
            frame.type == FrameType::kHello;
  Hello hello;
  if (ok) ok = decode_hello(frame.payload, hello);
  if (ok && hello.version != kProtocolVersion) {
    send_error(fd, "protocol version mismatch: daemon speaks v" +
                       std::to_string(kProtocolVersion) + ", client sent v" +
                       std::to_string(hello.version));
    ok = false;
  } else if (!ok) {
    send_error(fd, "malformed hello");
  }
  if (ok) {
    HelloAck ack;
    ack.warm_entries = cache_.size();
    ack.warm_traces = net::TraceStore::global().size();
    ok = send_frame(fd, {FrameType::kHelloAck, encode_hello_ack(ack)});
  }

  std::uint64_t frames = 0;
  while (ok && !stop_requested()) {
    const DecodeStatus status = recv_frame(fd, frame);
    if (status != DecodeStatus::kOk) break;  // clean close or torn frame
    ++frames;
    if (!handle_request(fd, frame)) break;
  }
  connection_span.arg("frames", frames);

  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    open_fds_.erase(fd);
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
  sessions_.fetch_add(1, std::memory_order_relaxed);
}

bool Server::handle_request(int fd, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kSubmit: {
      SubmitRequest request;
      if (!decode_submit(frame.payload, request)) {
        send_error(fd, "malformed submit payload");
        return false;
      }
      handle_submit(fd, request);
      return true;
    }
    case FrameType::kStats: {
      if (!frame.payload.empty()) {
        send_error(fd, "malformed stats payload");
        return false;
      }
      handle_stats(fd);
      return true;
    }
    default:
      send_error(fd, "unexpected frame type " +
                         std::to_string(static_cast<std::uint32_t>(
                             frame.type)));
      return false;
  }
}

std::string Server::validate(const SubmitRequest& request) const {
  if (!api::registry().contains(request.app)) {
    std::string known;
    for (const std::string& name : api::registry().names()) {
      known += known.empty() ? name : ", " + name;
    }
    return "unknown app '" + request.app + "' (have: " + known + ")";
  }
  if (!(request.scale > 0.0) || !std::isfinite(request.scale) ||
      request.scale > kMaxScale) {
    return "scale must be finite and in (0, " +
           support::format_double(kMaxScale, 0) + "]";
  }
  if (request.packets > kMaxPackets) {
    return "packets must be at most " + std::to_string(kMaxPackets);
  }
  if (request.survivor_cap < 0.0 || request.survivor_cap > kMaxSurvivorCap ||
      !std::isfinite(request.survivor_cap)) {
    return "survivor-cap must be in [0, " +
           support::format_double(kMaxSurvivorCap, 0) + "]";
  }
  if (request.greedy > 1) return "greedy must be 0 or 1";
  return {};
}

void Server::handle_submit(int fd, const SubmitRequest& request) {
  const std::string reason = validate(request);
  if (!reason.empty()) {
    send_error(fd, reason);
    return;
  }
  std::uint64_t job_id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job_id = next_job_id_++;
    Job job;
    job.app = request.app;
    job.submit_ms = uptime_ms();
    jobs_.emplace(job_id, std::move(job));
    trim_jobs();
  }
  log_line("job " + std::to_string(job_id) + ": " + request.app +
           " scale=" + support::format_double(request.scale, 3));
  try {
    const ResultFrame result = run_job(job_id, request);
    send_frame(fd, {FrameType::kResult, encode_result(result)});
  } catch (const std::exception& error) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      Job& job = jobs_.at(job_id);
      job.state = "failed";
      job.finish_ms = uptime_ms();
      trim_jobs();
    }
    send_error(fd, std::string("exploration failed: ") + error.what());
  }
}

ResultFrame Server::run_job(std::uint64_t job_id,
                            const SubmitRequest& request) {
  obs::SpanScope job_span(options_.trace, "serve.job", "serve");
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    Job& job = jobs_.at(job_id);
    job.state = "running";
    job.start_ms = uptime_ms();
  }
  core::CaseStudyOptions study_options =
      core::CaseStudyOptions{}.scaled(request.scale);
  study_options.packets = request.packets;
  study_options.seed_offset = request.seed_offset;

  const core::CaseStudy study =
      api::registry().make_study(request.app, study_options);
  core::ExplorationOptions options;
  if (request.greedy == 1) {
    options.step1_policy = core::Step1Policy::kGreedyPerSlot;
  }
  if (request.survivor_cap > 0.0) {
    options.survivor_cap_fraction = request.survivor_cap;
  }
  options.trace_sink = options_.trace;
  const core::ExplorationEngine engine(core::make_paper_energy_model(),
                                       std::move(options));

  core::ExplorationReport report;
  {
    std::lock_guard<std::mutex> run_lock(run_mu_);
    report = engine.explore(study, cache_, *pool_,
                            persistent_ ? &*persistent_ : nullptr);
  }
  ResultFrame result;
  result.job_id = job_id;
  result.app = report.app_name;
  result.executed = report.executed_simulations();
  std::ostringstream text;
  core::print_report(text, report, options_.cache_dir);
  result.report = text.str();
  result.records = report.serialized_records();
  job_span.arg("executed", result.executed)
      .arg("cache_hits", report.cache_hits)
      .arg("result_bytes", result.records.size());

  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    Job& job = jobs_.at(job_id);
    job.state = "done";
    job.last_executed = result.executed;
    job.finish_ms = uptime_ms();
    trim_jobs();
  }
  log_line("job " + std::to_string(job_id) + ": executed " +
           std::to_string(result.executed) + "/" +
           std::to_string(report.reduced_simulations()) + " simulations");
  return result;
}

void Server::trim_jobs() {
  for (auto it = jobs_.begin();
       jobs_.size() > kJobTableCap && it != jobs_.end();) {
    const bool finished =
        it->second.state == "done" || it->second.state == "failed";
    it = finished ? jobs_.erase(it) : std::next(it);
  }
}

void Server::handle_stats(int fd) {
  StatsReply reply;
  reply.uptime_ms = uptime_ms();
  reply.warm_entries = cache_.size();
  reply.sessions_served = sessions_served();
  // Since boot: seeding does not touch the cache's stats, so these are
  // the sums of the per-run hit/miss counts each ResultFrame reported.
  const core::SimulationCache::Stats since_boot = cache_.stats();
  reply.cache_hits = since_boot.hits;
  reply.cache_misses = since_boot.misses;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    reply.jobs_submitted = next_job_id_ - 1;
    reply.jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) {
      JobStats stats;
      stats.id = id;
      stats.app = job.app;
      stats.state = job.state;
      stats.last_executed = job.last_executed;
      stats.submit_ms = job.submit_ms;
      stats.start_ms = job.start_ms;
      stats.finish_ms = job.finish_ms;
      reply.jobs.push_back(std::move(stats));
    }
  }
  send_frame(fd, {FrameType::kStatsReply, encode_stats_reply(reply)});
}

bool Server::send_error(int fd, const std::string& message) {
  return send_frame(fd, {FrameType::kError, encode_error({message})});
}

}  // namespace ddtr::serve
