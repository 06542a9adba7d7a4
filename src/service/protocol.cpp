#include "service/protocol.hpp"

#include "service/binary.hpp"

namespace ft::service {

namespace {

/// Appends the little-endian CRC32 trailer over everything in *out.
void seal(std::string* out) {
  const std::uint32_t crc = crc32(*out);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
}

}  // namespace

void AnyFrame::reset() {
  // Member-wise clears (not `member = Member{}`) so every string and
  // vector keeps its high-water capacity: a session's steady-state
  // decode path must not allocate.
  kind = FrameKind::kBye;
  seq = 0;
  hello.program.clear();
  hello.arch.clear();
  hello.personality = "icc";
  hello.options = core::FuncyTunerOptions{};  // scalars only
  hello.caps.protocol = kProtocolVersion;
  hello.caps.archs.clear();
  welcome.server = "ftuned";
  welcome.session = 0;
  welcome.max_batch = 0;
  welcome.caps.protocol = kProtocolVersion;
  welcome.caps.archs.clear();
  error.code.clear();
  error.detail.clear();
  error.seq = 0;
  error.retryable = false;
  error.fatal = false;
  requests.clear();
  responses.clear();
}

DecodeStatus decode_frame(std::string_view payload, AnyFrame* out,
                          std::string* error) {
  out->reset();
  error->clear();
  // Verify-then-strip: the trailer covers the whole binary payload,
  // so a flipped byte ANYWHERE (tag, length, double bits) fails here
  // and never reaches the binary decoder. Length framing stays
  // synchronized, so the caller refuses just this frame (bad_frame)
  // and the session survives.
  if (payload.size() < 4) {
    *error = "binary-crc32 frame shorter than its checksum";
    return DecodeStatus::kUnparseable;
  }
  const std::string_view body = payload.substr(0, payload.size() - 4);
  const std::string_view trailer = payload.substr(payload.size() - 4);
  std::uint32_t declared = 0;
  for (int i = 3; i >= 0; --i) {
    declared = (declared << 8) |
               static_cast<unsigned char>(trailer[static_cast<std::size_t>(i)]);
  }
  if (crc32(body) != declared) {
    *error = "crc32 mismatch: frame corrupted in flight";
    return DecodeStatus::kUnparseable;
  }
  return binary_decode_frame(body, out, error);
}

void encode_hello_frame(const HelloFrame& hello, std::string* out) {
  binary_encode_hello(hello, out);
  seal(out);
}

void encode_welcome_frame(const WelcomeFrame& welcome, std::string* out) {
  binary_encode_welcome(welcome, out);
  seal(out);
}

void encode_error_frame(const ErrorFrame& error, std::string* out) {
  binary_encode_error(error, out);
  seal(out);
}

void encode_eval_frame(std::uint64_t seq, const core::EvalRequest& request,
                       std::string* out) {
  binary_encode_eval(seq, request, out);
  seal(out);
}

void encode_eval_batch_frame(std::uint64_t seq,
                             std::span<const core::EvalRequest> requests,
                             std::string* out) {
  binary_encode_eval_batch(seq, requests, out);
  seal(out);
}

void encode_result_frame(std::uint64_t seq,
                         const core::EvalResponse& response,
                         std::string* out) {
  binary_encode_result(seq, response, out);
  seal(out);
}

void encode_result_batch_frame(
    std::uint64_t seq, std::span<const core::EvalResponse> responses,
    std::string* out) {
  binary_encode_result_batch(seq, responses, out);
  seal(out);
}

void encode_ping_frame(std::uint64_t seq, std::string* out) {
  binary_encode_ping(seq, out);
  seal(out);
}

void encode_pong_frame(std::uint64_t seq, std::string* out) {
  binary_encode_pong(seq, out);
  seal(out);
}

void encode_bye_frame(std::string* out) {
  binary_encode_bye(out);
  seal(out);
}

}  // namespace ft::service
