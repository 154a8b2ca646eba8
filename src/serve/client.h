// Client side of the serve protocol: one RAII connection to a running
// `ddtr serve` daemon. Connecting only connects; each method is one round
// trip: one frame out, one reply frame (or an Error frame) back, each
// carrying its sender's protocol version.
// Server-reported failures (Error frames), a reply of another protocol
// version and protocol violations all surface as std::runtime_error — a
// client never half-parses a stream.
#pragma once

#include <string>

#include "serve/protocol.h"

namespace ddtr::serve {

class Client {
 public:
  // Connects to the daemon at `socket_path`. Throws std::runtime_error
  // when the socket is absent or the path is invalid.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Submits one study and blocks until its result digest.
  ResultFrame submit(const SubmitRequest& request);
  // Introspection snapshot: uptime, since-boot cache counters and the job
  // table with lifecycle timestamps.
  StatsReply stats();

 private:
  // Sends `frame` and reads its one reply: an Error frame or a reply of
  // another version throws, a frame of `expected` type is returned,
  // anything else is a protocol violation.
  Frame round_trip(const Frame& frame, FrameType expected);

  int fd_ = -1;
};

}  // namespace ddtr::serve

