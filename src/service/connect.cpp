#include "service/connect.hpp"

#include "service/framing.hpp"

namespace ft::service {

namespace {

[[noreturn]] void throw_error_frame(const ErrorFrame& error) {
  throw ServiceError(error.code.empty() ? "error" : error.code,
                     "ftuned refused: " + error.code +
                         (error.detail.empty() ? "" : ": " + error.detail));
}

}  // namespace

Session connect(const Endpoint& endpoint, const ConnectOptions& options) {
  // Even with MSG_NOSIGNAL on every framed send, a raced close can
  // still deliver SIGPIPE through auxiliary paths; one process-wide
  // SIG_IGN makes "peer died mid-write" always an EPIPE errno.
  ignore_sigpipe();
  Session session;
  session.transport_ = options.transport;
  session.chaos_ = chaos::make_engine(options.transport.chaos);
  session.socket_ =
      Socket::connect(endpoint.address, session.chaos_.get());
  const int timeout_ms = options.transport.io_timeout_ms();

  HelloFrame hello;
  hello.program = options.workspace.program;
  hello.arch = options.workspace.arch;
  hello.personality =
      options.workspace.personality == compiler::Personality::kGcc
          ? "gcc"
          : "icc";
  hello.options = options.workspace.options;
  std::string payload;
  encode_hello_frame(hello, &payload);
  if (!write_frame(session.socket_.fd(), payload, timeout_ms,
                   session.chaos_.get())) {
    throw ServiceError("connect",
                       "cannot send hello to " + endpoint.spec);
  }

  const FrameStatus status =
      read_frame(session.socket_.fd(), &payload, kDefaultMaxFrameBytes,
                 timeout_ms, session.chaos_.get());
  if (status == FrameStatus::kTimeout) {
    throw ServiceError("timeout",
                       "handshake with " + endpoint.spec + " timed out");
  }
  if (status != FrameStatus::kOk) {
    throw ServiceError("connect",
                       "connection closed during handshake with " +
                           endpoint.spec);
  }

  AnyFrame reply;
  std::string error;
  const DecodeStatus decoded = decode_frame(payload, &reply, &error);
  if (decoded == DecodeStatus::kOk && reply.kind == FrameKind::kError) {
    throw_error_frame(reply.error);
  }
  if (decoded != DecodeStatus::kOk ||
      reply.kind != FrameKind::kWelcome) {
    throw ServiceError("bad_frame",
                       "expected a welcome frame: " + error);
  }
  if (reply.welcome.caps.protocol != kProtocolVersion) {
    throw ServiceError(
        "unsupported_version",
        endpoint.spec + " speaks protocol version " +
            std::to_string(reply.welcome.caps.protocol) + ", not " +
            std::to_string(kProtocolVersion));
  }
  session.welcome_ = std::move(reply.welcome);
  return session;
}

}  // namespace ft::service
