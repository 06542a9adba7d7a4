// Raw-socket helpers for the service tests: payload builders over the
// binary-crc32 encoders, and a decoder that fails the test on anything
// but a clean frame. Tests that bypass Client (to send hostile or
// hand-built bytes) speak the wire through these.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "service/protocol.hpp"

namespace ft::service::wire {

inline std::string hello(const HelloFrame& frame) {
  std::string out;
  encode_hello_frame(frame, &out);
  return out;
}

/// A hello for program CL on broadwell, the workspace most tests use.
inline std::string hello_cl() {
  HelloFrame frame;
  frame.program = "CL";
  frame.arch = "broadwell";
  return hello(frame);
}

inline std::string eval(std::uint64_t seq,
                        const core::EvalRequest& request) {
  std::string out;
  encode_eval_frame(seq, request, &out);
  return out;
}

inline std::string eval_batch(std::uint64_t seq,
                              std::span<const core::EvalRequest> requests) {
  std::string out;
  encode_eval_batch_frame(seq, requests, &out);
  return out;
}

inline std::string ping(std::uint64_t seq) {
  std::string out;
  encode_ping_frame(seq, &out);
  return out;
}

inline std::string bye() {
  std::string out;
  encode_bye_frame(&out);
  return out;
}

/// Appends the CRC32 trailer to a hand-built body, so the bytes reach
/// the binary decoder instead of failing the checksum.
inline std::string seal(std::string body) {
  const std::uint32_t crc = crc32(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
  return body;
}

/// Decodes one payload; a non-kOk verdict fails the calling test.
inline AnyFrame decode(const std::string& payload) {
  AnyFrame frame;
  std::string error;
  EXPECT_EQ(decode_frame(payload, &frame, &error), DecodeStatus::kOk)
      << error;
  return frame;
}

}  // namespace ft::service::wire
