// Client side of the serve protocol: one RAII connection to a running
// `ddtr serve` daemon. Connecting performs the versioned hello handshake;
// each method is one request/response conversation (submit additionally
// streams ProgressFrame ticks into a callback until the result arrives).
// Server-reported failures (Error frames) and protocol violations both
// surface as std::runtime_error — a client never half-parses a stream.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "serve/protocol.h"

namespace ddtr::serve {

class Client {
 public:
  using ProgressFn = std::function<void(const ProgressFrame&)>;

  // Connects to the daemon at `socket_path` and completes the hello
  // handshake. Throws std::runtime_error when the socket is absent, the
  // daemon refuses, or the protocol versions mismatch.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // The daemon's handshake reply (warm-cache and trace counts).
  const HelloAck& hello() const noexcept { return hello_; }

  // Submits one study and blocks until its result, invoking `on_progress`
  // for every streamed tick. Returns the result digest.
  ResultFrame submit(const SubmitRequest& request,
                     const ProgressFn& on_progress = nullptr);
  // Introspection snapshot: uptime, since-boot cache counters and the job
  // table with lifecycle timestamps.
  StatsReply stats();
  // Asks the daemon to drain and exit; returns its farewell.
  ShutdownAck shutdown();

 private:
  // Sends `frame`, then reads frames until a terminal reply: Error frames
  // throw, Progress frames feed `on_progress`, a frame of `expected` type
  // is returned.
  Frame round_trip(const Frame& frame, FrameType expected,
                   const ProgressFn& on_progress = nullptr);
  // round_trip's receive loop alone: reads frames until the reply of
  // `expected` type (submit's second leg waits on its in-flight result).
  Frame receive(FrameType expected, const ProgressFn& on_progress);

  int fd_ = -1;
  HelloAck hello_;
};

}  // namespace ddtr::serve

