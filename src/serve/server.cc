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
  runner_.reset();  // joined before the wake pipe closes
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  ::close(wake_r_);
  ::close(wake_w_);
}

void Server::request_stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  wake();
}

void Server::wake() noexcept {
  // A full pipe (EAGAIN) already holds a wake byte. A signal handler may
  // run here, so the interrupted code's errno survives the write.
  const int saved_errno = errno;
  const char byte = 0;
  [[maybe_unused]] const ssize_t written = ::write(wake_w_, &byte, 1);
  errno = saved_errno;
}

void Server::log_line(const std::string& line) {
  if (!options_.log) return;
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
  boot_time_ = Clock::now();
}

std::uint64_t Server::uptime_ms() const {
  const auto up = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - boot_time_);
  return static_cast<std::uint64_t>(up.count());
}

void Server::serve_forever() {
  if (listen_fd_ < 0) throw std::logic_error("serve_forever before start()");
  // The run thread: a two-lane pool is its caller plus one worker, and
  // submit() hands a task to the worker.
  runner_.emplace(2);
  std::vector<pollfd> fds;
  while (!stop_requested()) {
    fds.assign({{listen_fd_, POLLIN, 0}, {wake_r_, POLLIN, 0}});
    Clock::time_point deadline = Clock::time_point::max();
    for (const Connection& c : conns_) {
      const int events = !c.out.empty() ? POLLOUT : c.reading() ? POLLIN : 0;
      fds.push_back({c.fd, static_cast<short>(events), 0});
      deadline = std::min(deadline, c.deadline);
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::min(deadline, Clock::now()));
    const int timeout_ms =  // -1: no frame begun, wait for an event
        deadline == Clock::time_point::max() ? -1
                                             : static_cast<int>(left.count());
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) continue;  // EINTR
    char bytes[64];
    while (fds[1].revents != 0 && ::read(wake_r_, bytes, sizeof(bytes)) > 0) {
    }
    finish_job();  // a no-op unless the run thread left a reply
    // Connections before the accept: a hang-up frees its slot for a
    // connection that came after it.
    for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
      if (!service(conns_[i], fds[i + 2].revents)) close_connection(conns_[i]);
    }
    std::erase_if(conns_, [](const Connection& c) { return c.fd < 0; });
    const int fd = fds[0].revents == 0 ? -1
                   : ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0 && conns_.size() < kMaxConnections) {
      conns_.push_back({.fd = fd, .id = next_conn_id_++});
    } else if (fd >= 0) {
      send_frame(fd, {FrameType::kError,
                      encode_error({"too many connections open; retry"})});
      ::close(fd);
    }
  }

  runner_.reset();  // the running job finishes and stores into the cache
  for (Connection& c : conns_) close_connection(c);  // drops queued jobs
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  log_line("stopped after " + std::to_string(sessions_served()) +
           " sessions");
}

bool Server::service(Connection& c, short revents) {
  if (Clock::now() >= c.deadline) return false;
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    if (!c.reading()) return false;  // a hang-up while a reply is owed
    char bytes[4096];
    const ssize_t r = ::recv(c.fd, bytes, sizeof(bytes), 0);
    if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) return false;
    if (r > 0) c.in.append(bytes, static_cast<std::size_t>(r));
  }
  for (;;) {
    while (c.sent < c.out.size()) {
      const ssize_t r = ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (r < 0) return errno == EAGAIN || errno == EINTR;
      c.sent += static_cast<std::size_t>(r);
    }
    c.out.clear();
    c.sent = 0;
    if (c.closing) return false;
    if (c.pending) break;
    Frame frame;
    std::size_t used = 0;
    const DecodeStatus status =
        decode_frame(c.in, kMaxRequestBytes, frame, used);
    if (status == DecodeStatus::kCorrupt) return false;
    if (status == DecodeStatus::kEof) break;  // no whole frame to serve
    // kOtherVersion consumed nothing; serve_frame refuses it and closes.
    c.in.erase(0, used);
    c.deadline = Clock::time_point::max();
    serve_frame(c, frame);
  }
  c.deadline = c.in.empty() || c.pending
                   ? Clock::time_point::max()
                   : std::min(c.deadline, Clock::now() + kFrameDeadline);
  return true;
}

void Server::serve_frame(Connection& c, const Frame& frame) {
  const auto refuse = [&c](const std::string& message) {
    c.out += encode_frame({FrameType::kError, encode_error({message})});
    c.closing = true;
  };
  if (frame.version != kProtocolVersion) {
    return refuse("protocol version mismatch (daemon v" +
                  std::to_string(kProtocolVersion) + ", client v" +
                  std::to_string(frame.version) + ")");
  }
  SubmitRequest request;
  if (frame.type == FrameType::kSubmit) {
    if (!decode_submit(frame.payload, request)) {
      return refuse("malformed submit payload");
    }
    const std::string reason = validate(request);
    if (!reason.empty()) {  // an error reply; the connection serves on
      c.out += encode_frame({FrameType::kError, encode_error({reason})});
      return;
    }
    const std::uint64_t job_id = next_job_id_++;
    jobs_[job_id] = {job_id, request.app, "queued", 0, uptime_ms(), 0, 0};
    // Drop the oldest finished jobs past the cap (see kMaxConnections).
    for (auto it = jobs_.begin();
         jobs_.size() > kJobTableCap && it != jobs_.end();) {
      const bool finished = it->second.state == "done" ||
                            it->second.state == "failed";
      it = finished ? jobs_.erase(it) : std::next(it);
    }
    log_line("job " + std::to_string(job_id) + ": " + request.app +
             " scale=" + support::format_double(request.scale, 3));
    queue_.push_back({.job_id = job_id, .conn_id = c.id, .request = request});
    c.pending = true;
    return start_next_job();
  }
  if (frame.type != FrameType::kStats) {
    return refuse("unexpected frame type " +
                  std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
  if (!frame.payload.empty()) return refuse("malformed stats payload");
  StatsReply reply;
  reply.uptime_ms = uptime_ms();
  reply.warm_entries = cache_.size();
  reply.warm_traces = net::TraceStore::global().size();
  reply.sessions_served = sessions_served();
  // Since boot: seeding does not touch the cache's stats, so these are
  // the sums of the per-run hit/miss counts each ResultFrame reported.
  const core::SimulationCache::Stats since_boot = cache_.stats();
  reply.cache_hits = since_boot.hits;
  reply.cache_misses = since_boot.misses;
  reply.jobs_submitted = next_job_id_ - 1;
  for (const auto& [id, job] : jobs_) reply.jobs.push_back(job);
  c.out += encode_frame({FrameType::kStatsReply, encode_stats_reply(reply)});
}

void Server::close_connection(Connection& c) {
  // Its queued job goes with it; a running one finishes.
  const auto queued =
      std::find_if(queue_.begin() + (busy_ ? 1 : 0), queue_.end(),
                   [&c](const Work& work) { return work.conn_id == c.id; });
  if (queued != queue_.end()) {
    jobs_.at(queued->job_id).state = "failed";
    jobs_.at(queued->job_id).finish_ms = uptime_ms();
    queue_.erase(queued);
  }
  ::close(c.fd);
  c.fd = -1;
  sessions_.fetch_add(1, std::memory_order_relaxed);
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

void Server::start_next_job() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  JobStats& job = jobs_.at(queue_.front().job_id);
  job.state = "running";
  job.start_ms = uptime_ms();
  runner_->submit([this, work = queue_.front()]() mutable {
    run_job(work);
    const std::lock_guard<std::mutex> lock(handoff_mu_);
    done_ = std::move(work);
    wake();
  });
}

void Server::finish_job() {
  std::unique_lock<std::mutex> lock(handoff_mu_);
  std::optional<Work> done = std::exchange(done_, std::nullopt);
  lock.unlock();
  if (!done) return;
  JobStats& job = jobs_.at(done->job_id);
  job.state = done->ok ? "done" : "failed";
  job.last_executed = done->executed;
  job.finish_ms = uptime_ms();
  log_line("job " + std::to_string(done->job_id) + ": " + job.state +
           ", executed " + std::to_string(done->executed) + " simulations");
  for (Connection& c : conns_) {
    if (c.id == done->conn_id) {
      c.out = std::move(done->reply);
      c.pending = false;
    }
  }
  queue_.pop_front();
  busy_ = false;
  start_next_job();
}

void Server::run_job(Work& work) {
  obs::SpanScope job_span(options_.trace, "serve.job", "serve");
  const SubmitRequest& request = work.request;
  try {
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
    const core::ExplorationReport report = engine.explore(
        study, cache_, *pool_, persistent_ ? &*persistent_ : nullptr);

    ResultFrame result;
    result.job_id = work.job_id;
    result.app = report.app_name;
    result.executed = report.executed_simulations();
    std::ostringstream text;
    core::print_report(text, report, options_.cache_dir);
    result.report = text.str();
    result.records = report.serialized_records();
    job_span.arg("executed", result.executed)
        .arg("cache_hits", report.cache_hits())
        .arg("result_bytes", result.records.size());
    work.ok = true;
    work.executed = result.executed;
    work.reply = encode_frame({FrameType::kResult, encode_result(result)});
  } catch (const std::exception& error) {
    work.reply = encode_frame(
        {FrameType::kError,
         encode_error({std::string("exploration failed: ") + error.what()})});
  }
}

}  // namespace ddtr::serve
