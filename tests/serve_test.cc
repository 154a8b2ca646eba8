// End-to-end contract of the serve daemon (serve/server.h + client.h),
// in-process: a real unix-socket server on a scratch path, real client
// connections. The load-bearing assertion is the ISSUE's acceptance
// check: a second identical submission executes ZERO simulations and
// returns byte-identical result records — the warm-cache guarantee,
// verified through the full client -> daemon -> client round trip. Also:
// one reply frame per submit, even as a connection's first frame (no
// frame before the Result, none after it), job table (bounded to the
// newest Server::kJobTableCap jobs), frames of another protocol version
// and an oversized packet count each answered with an Error frame, a
// retired frame type closing only its own connection, a throwing kernel
// leaving its job `failed` while the daemon serves on, a malformed Error
// frame and a reply of another version reported as such by the client,
// idle traces bounded across many distinct submissions, closed
// connections costing nothing (bounded virtual memory over many
// connections), the loop's bounds (an oversized header commits no
// memory, half a frame is closed at its deadline, the connection past
// the cap reads an Error frame, and a Client past it learns why on its
// first request), stats answered while a job runs, a stop waking the
// loop at once (from another thread or a signal handler), and a drain by
// request_stop() (socket removed, cache file warm for the next daemon).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/registry.h"
#include "api/study_builder.h"
#include "apps/common/app.h"
#include "nettrace/trace_store.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace ddtr::serve {
namespace {

// The count a report prints after `label`, or 0 when it has no such line.
std::uint64_t report_count(const std::string& report, const std::string& label) {
  const std::size_t at = report.find(label);
  return at == std::string::npos
             ? 0
             : std::stoull(report.substr(at + label.size()));
}

SubmitRequest tiny_url_request() {
  SubmitRequest request;
  request.app = "url";
  request.packets = 200;  // minimal traces: the run must stay test-sized
  return request;
}

// A workload whose kernel always throws: the way a job reaches `failed`.
class FaultyKernelApp final : public apps::NetworkApplication {
 public:
  std::string name() const override { return "FaultyKernel"; }
  std::vector<std::string> dominant_structures() const override {
    return {"table", "queue"};
  }
  apps::RunResult run(const net::Trace&, const ddt::DdtCombination&) override {
    throw std::runtime_error("injected kernel fault");
  }
};

// A workload whose kernel waits for the test to open a gate: a job that
// stays `running` for as long as a test needs it to.
class GatedKernelApp final : public apps::NetworkApplication {
 public:
  static void set_open(bool open) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = open;
    }
    cv_.notify_all();
  }
  std::string name() const override { return "GatedKernel"; }
  std::vector<std::string> dominant_structures() const override {
    return {"table", "queue"};
  }
  apps::RunResult run(const net::Trace&, const ddt::DdtCombination&) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [] { return open_; });
    return {};
  }

 private:
  static inline std::mutex mu_;
  static inline std::condition_variable cv_;
  static inline bool open_ = false;
};

// Registers a test workload under `name` once per process.
template <typename App>
void register_app(const std::string& name, const std::string& app_name) {
  if (api::registry().contains(name)) return;
  const auto make = [app_name](const core::CaseStudyOptions& options) {
    return api::StudyBuilder(app_name)
        .packets(options.packets_for(10000))
        .network("dart-berry")
        .app([] { return std::make_shared<App>(); })
        .build();
  };
  api::registry().add({name, "a test kernel", make});
}

// The daemon a raised signal stops, as the CLI's SIGTERM handler does.
std::atomic<Server*> g_signal_target{nullptr};

void stop_signal_target(int) {
  if (Server* server = g_signal_target.load()) server->request_stop();
}

// A /proc/self/status size in KiB (VmSize, VmRSS); the daemon runs
// in-process, so its memory counts here.
std::uint64_t status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

// Makes a blocking read on `fd` give up after 10 s, so a daemon that
// never answers fails a test instead of hanging it.
void bound_reads(int fd) {
  const timeval timeout{10, 0};
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ddtr_serve_" + std::to_string(::getpid()) + "_" +
             info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    socket_ = dir_ + "/d.sock";
    ASSERT_LT(socket_.size(), sizeof(sockaddr_un{}.sun_path))
        << "socket path over the unix-domain limit: " << socket_;
  }

  void TearDown() override {
    stop_server();
    std::filesystem::remove_all(dir_);
  }

  void start_server() {
    ServerOptions options;
    options.socket_path = socket_;
    options.cache_dir = dir_ + "/cache";
    options.jobs = 2;
    server_ = std::make_unique<Server>(options);
    server_->start();
    thread_ = std::thread([this] { server_->serve_forever(); });
  }

  void stop_server() {
    if (server_) server_->request_stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

  // A scripted peer in place of the daemon: it accepts one connection,
  // reads one frame and answers it with `reply`, raw bytes.
  std::thread scripted_peer(std::string reply) {
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listener, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    socket_.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listener, 1), 0);
    return std::thread([listener, reply = std::move(reply)] {
      const int fd = ::accept(listener, nullptr, nullptr);
      Frame frame;
      if (fd >= 0 && recv_frame(fd, frame) == DecodeStatus::kOk) {
        ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      }
      if (fd >= 0) ::close(fd);
      ::close(listener);
    });
  }

  // A raw connection to the daemon: for frames the Client would never
  // send, and to read exactly the frames the daemon sends.
  int raw_connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    socket_.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    return fd;
  }

  std::string dir_;
  std::string socket_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServeTest, WarmResubmissionExecutesZeroAndIsByteIdentical) {
  start_server();

  std::string cold_records;
  {
    Client client(socket_);
    EXPECT_EQ(client.stats().warm_entries, 0u);
    const ResultFrame cold = client.submit(tiny_url_request());
    EXPECT_GT(cold.executed, 0u);
    EXPECT_EQ(report_count(cold.report, "executed simulations:"),
              cold.executed);
    EXPECT_GT(report_count(cold.report, "survivors after step 1:"), 0u);
    EXPECT_NE(cold.report.find("Pareto-optimal combinations:\n  "),
              std::string::npos)
        << cold.report;
    EXPECT_FALSE(cold.records.empty());
    cold_records = cold.records;
  }

  // The acceptance check: same submission, new connection — the daemon's
  // warm cache replays everything.
  Client client(socket_);
  EXPECT_GT(client.stats().warm_entries, 0u);
  const ResultFrame warm = client.submit(tiny_url_request());
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_NE(warm.report.find("(cache hit rate 100.0%)"), std::string::npos)
      << warm.report;
  EXPECT_EQ(warm.records, cold_records);  // byte-identical
}

TEST_F(ServeTest, SubmitIsAnsweredByOneResultFrame) {
  start_server();
  // The connection's first frame is the submit, and the first frame back
  // is its result.
  const int fd = raw_connect();
  bound_reads(fd);
  ASSERT_TRUE(send_frame(
      fd, {FrameType::kSubmit, encode_submit(tiny_url_request())}));
  Frame reply;
  ASSERT_EQ(recv_frame(fd, reply), DecodeStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kResult);
  ResultFrame result;
  ASSERT_TRUE(decode_result(reply.payload, result));
  EXPECT_FALSE(result.records.empty());

  // The next frame on the connection is the stats reply: nothing of the
  // submit is left in flight.
  ASSERT_TRUE(send_frame(fd, {FrameType::kStats, {}}));
  ASSERT_EQ(recv_frame(fd, reply), DecodeStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kStatsReply);
  StatsReply stats;
  ASSERT_TRUE(decode_stats_reply(reply.payload, stats));
  ASSERT_EQ(stats.jobs.size(), 1u);
  EXPECT_EQ(stats.jobs[0].id, result.job_id);

  // Nor after it: a half-closed client reads the daemon's close, not a
  // stray frame.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  EXPECT_EQ(recv_frame(fd, reply), DecodeStatus::kEof);
  ::close(fd);
}

TEST_F(ServeTest, StatsListsJobs) {
  start_server();
  Client client(socket_);
  const ResultFrame first = client.submit(tiny_url_request());

  const StatsReply stats = client.stats();
  EXPECT_GT(stats.warm_entries, 0u);
  ASSERT_EQ(stats.jobs.size(), 1u);
  EXPECT_EQ(stats.jobs[0].id, first.job_id);
  EXPECT_EQ(stats.jobs[0].app, "url");
  EXPECT_EQ(stats.jobs[0].state, "done");
  EXPECT_EQ(stats.jobs[0].last_executed, first.executed);
}

TEST_F(ServeTest, JobTableKeepsTheNewestJobsOnly) {
  start_server();
  Client client(socket_);
  constexpr std::size_t kJobs = Server::kJobTableCap + 5;
  std::uint64_t first_id = 0;
  std::uint64_t last_id = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const ResultFrame result = client.submit(tiny_url_request());
    if (i == 0) first_id = result.job_id;
    last_id = result.job_id;
  }

  const StatsReply stats = client.stats();
  // Every job finished, so the table is full to the cap, never past it:
  // the five oldest jobs were dropped.
  ASSERT_EQ(stats.jobs.size(), Server::kJobTableCap);
  EXPECT_EQ(stats.jobs.front().id, first_id + 5);
  EXPECT_EQ(stats.jobs.back().id, last_id);
  EXPECT_EQ(stats.jobs_submitted, kJobs);
}

TEST_F(ServeTest, RejectsUnknownAppAndBadKnobs) {
  start_server();
  Client client(socket_);
  SubmitRequest request = tiny_url_request();
  request.app = "no-such-workload";
  EXPECT_THROW(client.submit(request), std::runtime_error);

  request = tiny_url_request();
  request.survivor_cap = 2.0;
  EXPECT_THROW(client.submit(request), std::runtime_error);

  request = tiny_url_request();
  request.scale = 0.0;
  EXPECT_THROW(client.submit(request), std::runtime_error);

  // The connection that sent a rejected submit stays usable (errors are
  // replies, not hangups)... and valid work still goes through.
  const ResultFrame ok = client.submit(tiny_url_request());
  EXPECT_FALSE(ok.records.empty());
}

TEST_F(ServeTest, RefusesFramesOfAnotherVersion) {
  start_server();
  // Raw connections: a v9 client (its header's version half-word is part
  // of the type word, so it reads 0), a frame claiming v9, and a future
  // client speaking v999 each get an Error frame naming both versions,
  // then a close; never a misparse, and no job starts.
  for (const std::uint16_t version :
       {std::uint16_t{0}, std::uint16_t{9}, std::uint16_t{999}}) {
    const int fd = raw_connect();
    bound_reads(fd);
    ASSERT_TRUE(send_frame(
        fd, {FrameType::kSubmit, encode_submit(tiny_url_request()), version}));
    Frame reply;
    ASSERT_EQ(recv_frame(fd, reply), DecodeStatus::kOk);
    EXPECT_EQ(reply.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(decode_error(reply.payload, error));
    EXPECT_EQ(error.message, "protocol version mismatch (daemon v" +
                                 std::to_string(kProtocolVersion) +
                                 ", client v" + std::to_string(version) + ")");
    EXPECT_EQ(recv_frame(fd, reply), DecodeStatus::kEof);
    ::close(fd);
  }

  // A current client is still served afterwards.
  Client client(socket_);
  EXPECT_FALSE(client.submit(tiny_url_request()).records.empty());
  EXPECT_EQ(client.stats().jobs_submitted, 1u);
}

TEST_F(ServeTest, RetiredFrameTypesCloseTheConnectionAndTheDaemonServesOn) {
  start_server();
  // Types 4 and 5 were the submit ack and progress tick of protocol v6,
  // 8 the job-table query of v3, 10 the result re-fetch of v5 and 11 and
  // 12 the shutdown request and its ack of v7, and 1 and 2 the handshake
  // of v2-v9. None is assigned, so each is a corrupt frame: the daemon
  // closes that connection without a reply. An assigned type the daemon
  // does not serve (a Result from a client) gets an Error frame.
  for (const std::uint16_t type : {1u, 2u, 4u, 5u, 8u, 10u, 11u, 12u}) {
    const int fd = raw_connect();
    bound_reads(fd);
    ASSERT_TRUE(send_frame(fd, {static_cast<FrameType>(type), ""}));
    Frame reply;
    EXPECT_EQ(recv_frame(fd, reply), DecodeStatus::kEof) << "type " << type;
    ::close(fd);
  }
  const int fd = raw_connect();
  bound_reads(fd);
  ASSERT_TRUE(send_frame(fd, {FrameType::kResult, ""}));
  Frame reply;
  ASSERT_EQ(recv_frame(fd, reply), DecodeStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode_error(reply.payload, error));
  EXPECT_NE(error.message.find("unexpected frame type 6"), std::string::npos)
      << error.message;
  ::close(fd);

  // A fresh connection to the same daemon is still served.
  Client client(socket_);
  EXPECT_FALSE(client.submit(tiny_url_request()).records.empty());
  EXPECT_EQ(client.stats().jobs_submitted, 1u);
}

TEST_F(ServeTest, FailingKernelMarksTheJobFailedAndTheDaemonServesOn) {
  register_app<FaultyKernelApp>("faulty-kernel", "FaultyKernel");
  start_server();
  Client client(socket_);
  SubmitRequest request = tiny_url_request();
  request.app = "faulty-kernel";
  // Let the uptime clock leave 0 first, so an unset finish time (0)
  // cannot pass for one at or after the job's start.
  while (client.stats().uptime_ms == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  try {
    client.submit(request);
    ADD_FAILURE() << "a throwing kernel's submission returned a result";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("daemon: exploration failed:", 0),
              0u)
        << error.what();
  }
  const StatsReply stats = client.stats();
  ASSERT_EQ(stats.jobs.size(), 1u);
  EXPECT_EQ(stats.jobs[0].app, "faulty-kernel");
  EXPECT_EQ(stats.jobs[0].state, "failed");
  // A failed job finished too: its run started and ended, in that order.
  EXPECT_GT(stats.jobs[0].start_ms, 0u);
  EXPECT_LE(stats.jobs[0].submit_ms, stats.jobs[0].start_ms);
  EXPECT_LE(stats.jobs[0].start_ms, stats.jobs[0].finish_ms);
  EXPECT_LE(stats.jobs[0].finish_ms, stats.uptime_ms);

  // The same connection still gets a built-in study served.
  EXPECT_FALSE(client.submit(tiny_url_request()).records.empty());
  const StatsReply after = client.stats();
  ASSERT_EQ(after.jobs.size(), 2u);
  EXPECT_EQ(after.jobs[1].state, "done");
}

TEST_F(ServeTest, MalformedErrorFrameMidRunIsReportedAsMalformed) {
  // A scripted peer, not the daemon: it answers the submit with an Error
  // frame whose payload does not decode.
  std::thread peer =
      scripted_peer(encode_frame({FrameType::kError, "\x01"}));  // cut off
  try {
    Client client(socket_);
    client.submit(tiny_url_request());
    ADD_FAILURE() << "the submission returned a result";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "serve client: malformed error frame");
  }
  peer.join();
}

TEST_F(ServeTest, AReplyOfAnotherVersionNamesBothVersions) {
  // A scripted daemon from the future answers with a v999 frame.
  std::thread peer = scripted_peer(
      encode_frame({FrameType::kStatsReply, encode_stats_reply({}), 999}));
  try {
    Client(socket_).stats();
    ADD_FAILURE() << "a v999 reply was parsed";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "serve client: protocol version mismatch (daemon v999, "
              "client v" + std::to_string(kProtocolVersion) + ")");
  }
  peer.join();
}

TEST_F(ServeTest, StatsReportsSinceBootCountersAndJobTimestamps) {
  start_server();
  Client client(socket_);
  const ResultFrame cold = client.submit(tiny_url_request());
  const ResultFrame warm = client.submit(tiny_url_request());
  EXPECT_EQ(warm.executed, 0u);

  const StatsReply stats = client.stats();
  // The acceptance check: the daemon's since-boot hit/miss counters are
  // exactly the sums over the reports it sent: a run's misses are its
  // executed records, its hits the logical rest.
  const std::uint64_t logical =
      report_count(cold.report, "reduced simulations:");
  ASSERT_GT(logical, 0u);
  EXPECT_EQ(report_count(warm.report, "reduced simulations:"), logical);
  EXPECT_EQ(stats.cache_misses, cold.executed + warm.executed);
  EXPECT_EQ(stats.cache_hits, 2 * logical - cold.executed - warm.executed);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_GT(stats.warm_entries, 0u);
  ASSERT_EQ(stats.jobs.size(), 2u);
  for (const JobStats& job : stats.jobs) {
    EXPECT_EQ(job.app, "url");
    EXPECT_EQ(job.state, "done");
    // Lifecycle timestamps are monotone steady-clock ms since boot.
    EXPECT_LE(job.submit_ms, job.start_ms);
    EXPECT_LE(job.start_ms, job.finish_ms);
    EXPECT_LE(job.finish_ms, stats.uptime_ms);
  }
}

TEST_F(ServeTest, OversizedPacketCountIsRejectedBeforeAnyJobStarts) {
  start_server();
  Client client(socket_);
  // The trace store is process-wide: other tests may have filled it.
  const std::uint64_t traces_before = client.stats().warm_traces;
  // An unbounded override would have the daemon build a trace of that
  // many packets, holding run_mu_ against every other job meanwhile.
  for (const std::uint64_t packets :
       {kMaxPackets + 1, std::uint64_t{1} << 40}) {
    SubmitRequest request = tiny_url_request();
    request.packets = packets;
    try {
      client.submit(request);
      FAIL() << "a " << packets << "-packet submission was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("packets must be at most " +
                          std::to_string(kMaxPackets)),
                std::string::npos)
          << error.what();
    }
  }
  // Rejected at validation: no job was registered, none ran, and no
  // trace was built.
  const StatsReply stats = client.stats();
  EXPECT_EQ(stats.jobs_submitted, 0u);
  EXPECT_TRUE(stats.jobs.empty());
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.warm_traces, traces_before);
}

TEST_F(ServeTest, IdleTracesAreBoundedAndTheNewestStayWarm) {
  start_server();
  Client client(socket_);
  // Route builds one trace per network (7), so six seed offsets ask for
  // 42 distinct traces; once a submission's study is gone its traces are
  // idle, and only the most recently requested ones stay.
  SubmitRequest request;
  request.app = "route";
  request.scale = 0.05;
  for (std::uint64_t offset = 1; offset <= 6; ++offset) {
    request.seed_offset = offset;
    EXPECT_GT(client.submit(request).executed, 0u) << "offset " << offset;
  }
  EXPECT_LE(client.stats().warm_traces, net::TraceStore::kRetain);
  // The newest offset's traces and records are still warm.
  EXPECT_EQ(client.submit(request).executed, 0u);
}

TEST_F(ServeTest, FinishedSessionsAreReaped) {
  // One malloc arena, so VmSize measures what connections leave behind
  // and not which threads happened to allocate: a thread that allocates
  // while another holds the arena may open a fresh one (64 MiB of
  // address space).
  mallopt(M_ARENA_MAX, 1);
  start_server();
  const auto connect_and_poll = [this] {
    Client client(socket_);
    client.stats();
  };
  // Warm-up: the first sessions settle the allocator's per-thread arenas.
  for (int i = 0; i < 10; ++i) connect_and_poll();
  const std::uint64_t before_kb = status_kb("VmSize");
  ASSERT_GT(before_kb, 0u);

  // A closed connection leaves nothing behind: no thread, stack or
  // buffer (a thread per connection left unjoined would keep its 8 MiB
  // stack mapped: 200 of them ~1.6 GiB).
  constexpr std::uint64_t kConnections = 200;
  for (std::uint64_t i = 0; i < kConnections; ++i) connect_and_poll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->sessions_served() < 10 + kConnections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_->sessions_served(), 10 + kConnections);
  const std::uint64_t after_kb = status_kb("VmSize");
  EXPECT_LT(after_kb, before_kb + 64 * 1024)
      << "VmSize grew from " << before_kb << " KiB to " << after_kb
      << " KiB over " << kConnections << " connections";
}

TEST_F(ServeTest, AnOversizedHeaderCommitsNoMemoryAndOthersAreServed) {
  start_server();
  Client client(socket_);
  client.submit(tiny_url_request());  // the cold run's memory is in `before`
  const std::uint64_t before_kb = status_kb("VmRSS");

  // One 24-byte header claiming the largest payload any frame may carry,
  // then silence: the daemon must refuse it at the header, not buffer
  // for it.
  std::string header = encode_frame({FrameType::kSubmit, {}});
  for (int byte = 0; byte < 8; ++byte) {
    header[8 + byte] = static_cast<char>(kMaxPayloadBytes >> (8 * byte));
  }
  const int fd = raw_connect();
  bound_reads(fd);
  ASSERT_EQ(::send(fd, header.data(), header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  EXPECT_EQ(client.submit(tiny_url_request()).executed, 0u);
  Frame reply;
  EXPECT_EQ(recv_frame(fd, reply), DecodeStatus::kEof);
  ::close(fd);

  const std::uint64_t after_kb = status_kb("VmRSS");
  EXPECT_LT(after_kb, before_kb + 16 * 1024)
      << "VmRSS grew from " << before_kb << " KiB to " << after_kb << " KiB";
}

TEST_F(ServeTest, HalfAFrameIsClosedAtItsDeadlineWhileOthersAreServed) {
  start_server();
  const int stalled = raw_connect();
  bound_reads(stalled);
  const std::string submit =
      encode_frame({FrameType::kSubmit, encode_submit(tiny_url_request())});
  const auto sent_at = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(stalled, submit.data(), submit.size() / 2, MSG_NOSIGNAL),
            static_cast<ssize_t>(submit.size() / 2));

  Client client(socket_);
  EXPECT_FALSE(client.submit(tiny_url_request()).records.empty());
  Frame reply;
  EXPECT_EQ(recv_frame(stalled, reply), DecodeStatus::kEof);
  const auto waited = std::chrono::steady_clock::now() - sent_at;
  EXPECT_GE(waited, Server::kFrameDeadline);
  EXPECT_LT(waited, Server::kFrameDeadline + std::chrono::seconds(5));
  ::close(stalled);
  // A connection idle between frames is never evicted.
  EXPECT_EQ(client.stats().jobs_submitted, 1u);
}

TEST_F(ServeTest, TheConnectionPastTheCapReadsAnErrorFrame) {
  start_server();
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < Server::kMaxConnections; ++i) {
    clients.push_back(std::make_unique<Client>(socket_));
  }
  const int fd = raw_connect();
  bound_reads(fd);
  Frame reply;
  ASSERT_EQ(recv_frame(fd, reply), DecodeStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode_error(reply.payload, error));
  EXPECT_NE(error.message.find("too many connections"), std::string::npos)
      << error.message;
  EXPECT_EQ(recv_frame(fd, reply), DecodeStatus::kEof);
  ::close(fd);

  // A closed connection frees its slot.
  clients.pop_back();
  EXPECT_EQ(Client(socket_).stats().jobs_submitted, 0u);
}

TEST_F(ServeTest, AClientPastTheCapIsToldWhyOnItsFirstRequest) {
  start_server();
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < Server::kMaxConnections; ++i) {
    clients.push_back(std::make_unique<Client>(socket_));
  }
  // Connecting only connects, so the refusal shows on the first request:
  // whether its send beats the daemon's close or fails with EPIPE after
  // it, the client reads the Error frame the daemon left.
  Client extra(socket_);
  try {
    extra.stats();
    ADD_FAILURE() << "a client past the cap was served";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "daemon: too many connections open; retry");
  }
  // The clients inside the cap are served.
  EXPECT_EQ(clients.back()->stats().jobs_submitted, 0u);
}

TEST_F(ServeTest, StatsIsAnsweredWhileAJobRuns) {
  register_app<GatedKernelApp>("gated-kernel", "GatedKernel");
  GatedKernelApp::set_open(false);
  start_server();
  const auto submit_in_background = [this](const std::string& app) {
    return std::thread([this, app] {
      SubmitRequest request = tiny_url_request();
      request.app = app;
      try {
        Client(socket_).submit(request);
      } catch (const std::exception& error) {
        ADD_FAILURE() << app << ": " << error.what();
      }
    });
  };
  Client watcher(socket_);
  // Polls stats until `jobs` jobs were submitted (or 30 s passed).
  const auto stats_after = [&watcher](std::uint64_t jobs) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    StatsReply stats = watcher.stats();
    while (stats.jobs_submitted < jobs &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      stats = watcher.stats();
    }
    return stats;
  };
  std::thread gated = submit_in_background("gated-kernel");
  const StatsReply one = stats_after(1);
  std::thread queued = submit_in_background("url");
  const StatsReply two = stats_after(2);
  GatedKernelApp::set_open(true);
  gated.join();
  queued.join();

  ASSERT_EQ(one.jobs.size(), 1u);
  EXPECT_EQ(one.jobs[0].state, "running");
  ASSERT_EQ(two.jobs.size(), 2u);
  EXPECT_EQ(two.jobs[0].app, "gated-kernel");
  EXPECT_EQ(two.jobs[0].state, "running");
  EXPECT_EQ(two.jobs[1].app, "url");
  EXPECT_EQ(two.jobs[1].state, "queued");
  const StatsReply after = watcher.stats();
  ASSERT_EQ(after.jobs.size(), 2u);
  EXPECT_EQ(after.jobs[0].state, "done");
  EXPECT_EQ(after.jobs[1].state, "done");
}

TEST_F(ServeTest, StopWakesTheAcceptLoopAtOnce) {
  // Each stop lands while the loop is parked in poll: a stats round trip
  // proves it accepted, and with no frame begun it polls with no
  // timeout. A timed poll would make every stop wait out part of it.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    start_server();
    Client(socket_).stats();
    std::thread([this] { server_->request_stop(); }).join();
    thread_.join();
    server_.reset();
    EXPECT_FALSE(std::filesystem::exists(socket_)) << "daemon " << i;
  }

  // A process-directed SIGTERM can land on any thread, not only the
  // loop's: raise one on this thread.
  start_server();
  Client(socket_).stats();
  g_signal_target.store(server_.get());
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = stop_signal_target;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(::sigaction(SIGTERM, &action, &previous), 0);
  std::raise(SIGTERM);
  ::sigaction(SIGTERM, &previous, nullptr);
  g_signal_target.store(nullptr);
  thread_.join();
  server_.reset();
  EXPECT_FALSE(std::filesystem::exists(socket_));

  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_LT(elapsed_s, 0.5) << "11 idle daemons took " << elapsed_s
                            << " s to start and stop";
}

TEST_F(ServeTest, ShutdownDrainsFlushesAndLeavesWarmCacheOnDisk) {
  start_server();
  std::string cold_records;
  {
    Client client(socket_);
    cold_records = client.submit(tiny_url_request()).records;
    // A stop with the connection still open: the drain closes it.
    server_->request_stop();
    thread_.join();
  }
  server_.reset();
  // Drained: the socket file is gone.
  EXPECT_FALSE(std::filesystem::exists(socket_));

  // Flushed: a fresh daemon over the same cache dir starts warm and
  // replays the study byte-identically with zero executed simulations.
  start_server();
  Client client(socket_);
  EXPECT_GT(client.stats().warm_entries, 0u);
  const ResultFrame warm = client.submit(tiny_url_request());
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.records, cold_records);
}

}  // namespace
}  // namespace ddtr::serve
