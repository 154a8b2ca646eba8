#include "serve/client.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ddtr::serve {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve client: invalid socket path '" +
                             socket_path + "'");
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("serve client: socket() failed");
  addr.sun_family = AF_UNIX;
  socket_path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve client: cannot connect to " +
                             socket_path + " (is the daemon running?)");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::round_trip(const Frame& frame, FrameType expected) {
  // A daemon that refused this connection sent an Error frame and closed,
  // so a send that fails still reads the reason left for it.
  const bool sent = send_frame(fd_, frame);
  Frame reply;
  const DecodeStatus status = recv_frame(fd_, reply);
  if (status == DecodeStatus::kOtherVersion) {
    throw std::runtime_error(
        "serve client: protocol version mismatch (daemon v" +
        std::to_string(reply.version) + ", client v" +
        std::to_string(kProtocolVersion) + ")");
  }
  if (!sent && (status != DecodeStatus::kOk ||
                reply.type != FrameType::kError)) {
    throw std::runtime_error("serve client: send failed (daemon gone?)");
  }
  if (status != DecodeStatus::kOk) {
    throw std::runtime_error(status == DecodeStatus::kEof
                                 ? "serve client: daemon closed the connection"
                                 : "serve client: corrupt frame from daemon");
  }
  if (reply.type == FrameType::kError) {
    ErrorFrame error;
    if (!decode_error(reply.payload, error)) {
      throw std::runtime_error("serve client: malformed error frame");
    }
    throw std::runtime_error("daemon: " + error.message);
  }
  if (reply.type != expected) {
    throw std::runtime_error("serve client: unexpected frame type " +
                             std::to_string(static_cast<std::uint32_t>(
                                 reply.type)));
  }
  return reply;
}

ResultFrame Client::submit(const SubmitRequest& request) {
  const Frame reply = round_trip(
      {FrameType::kSubmit, encode_submit(request)}, FrameType::kResult);
  ResultFrame result;
  if (!decode_result(reply.payload, result)) {
    throw std::runtime_error("serve client: malformed result frame");
  }
  return result;
}

StatsReply Client::stats() {
  const Frame reply =
      round_trip({FrameType::kStats, {}}, FrameType::kStatsReply);
  StatsReply out;
  if (!decode_stats_reply(reply.payload, out)) {
    throw std::runtime_error("serve client: malformed stats reply");
  }
  return out;
}

}  // namespace ddtr::serve
