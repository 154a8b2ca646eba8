// Client side of the serve protocol: one RAII connection to a running
// `ddtr serve` daemon. Connecting performs the versioned hello handshake;
// each method is one request/response conversation: one frame out, one
// reply frame (or an Error frame) back.
// Server-reported failures (Error frames) and protocol violations both
// surface as std::runtime_error — a client never half-parses a stream.
#pragma once

#include <string>

#include "serve/protocol.h"

namespace ddtr::serve {

class Client {
 public:
  // Connects to the daemon at `socket_path` and completes the hello
  // handshake. Throws std::runtime_error when the socket is absent, the
  // daemon refuses, or the protocol versions mismatch.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // The daemon's handshake reply (warm-cache and trace counts).
  const HelloAck& hello() const noexcept { return hello_; }

  // Submits one study and blocks until its result digest.
  ResultFrame submit(const SubmitRequest& request);
  // Introspection snapshot: uptime, since-boot cache counters and the job
  // table with lifecycle timestamps.
  StatsReply stats();

 private:
  // Sends `frame` and reads its one reply: an Error frame throws, a frame
  // of `expected` type is returned, anything else is a protocol violation.
  Frame round_trip(const Frame& frame, FrameType expected);

  int fd_ = -1;
  HelloAck hello_;
};

}  // namespace ddtr::serve

