// The ftuned wire protocol: typed frames over service/framing. Every
// frame - the hello/welcome handshake included - travels in ONE
// encoding, binary-crc32: the compact binary layout of
// service/binary.hpp (fixed-width little-endian fields, doubles as
// their raw IEEE-754 bits, so bit-exactness is structural) followed by
// a 4-byte little-endian CRC32 trailer over that layout. A frame whose
// trailer does not match is refused as `bad_frame` before any of its
// fields is read.
//
// EvalRequest / EvalResponse from core/evaluator.hpp are serialized
// field-for-field: the in-process evaluation currency IS the wire
// payload, so remote evaluation cannot drift from local semantics.
//
// Frame inventory (client -> server / server -> client):
//   hello       -> welcome | error      session setup + version check
//   eval        -> result | error       one raw evaluation
//   eval_batch  -> result_batch | error coalesced batch
//   ping        -> pong                 liveness probe
//   bye         -> (close)              orderly shutdown
//
// An error frame carries a stable code, the offending seq (0 for
// session-level errors), and retryable/fatal bits. After a fatal
// error the server closes the connection.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"
#include "core/funcy_tuner.hpp"
#include "service/framing.hpp"
#include "support/crc32.hpp"

namespace ft::service {

/// Bumped on any incompatible frame change; a hello with a different
/// version is refused with a structured "unsupported_version" error.
inline constexpr int kProtocolVersion = 2;

/// Kept only because perfbench/ftbench.cpp names it (a later
/// benchmark-only change can remove it): binary-crc32 is the one wire
/// encoding, so this single-valued enum selects nothing.
enum class Framing : std::uint8_t {
  kBinaryCrc = 2,
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`; seals every
/// wire frame. The implementation lives in support/crc32 so the
/// persistent eval-cache's on-disk entries share the exact codec
/// without depending on the service layer.
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) noexcept {
  return support::crc32(bytes);
}

/// What a peer declares about itself in hello and welcome.
struct Capabilities {
  /// Travels first after the frame header, so a peer of another
  /// version is refused as "unsupported_version" whatever the rest of
  /// its layout looks like.
  int protocol = kProtocolVersion;
  /// Architecture names this daemon serves, in canonical table order;
  /// welcome only. Heterogeneous fleets pin campaign cells to daemons
  /// advertising the cell's arch.
  std::vector<std::string> archs;
};

/// Session opener: names the workspace the client wants to evaluate
/// in. `options` carries only the measurement-relevant fields (seed,
/// noise, attribution, faults) - retries/cache/journal policy stays
/// client-side and is never transmitted.
struct HelloFrame {
  std::string program;      ///< benchmark name (programs::by_name)
  std::string arch;         ///< machine::architecture_by_name key
  std::string personality = "icc";  ///< "icc" | "gcc"
  core::FuncyTunerOptions options;
  Capabilities caps;        ///< caps.protocol is the version
};

struct WelcomeFrame {
  std::string server = "ftuned";
  std::uint64_t session = 0;
  std::size_t max_batch = 0;  ///< requests the server accepts per frame
  Capabilities caps;          ///< caps.archs = served architectures
};

struct ErrorFrame {
  std::string code;    ///< bad_frame, bad_request, unknown_program,
                       ///< unknown_architecture, overloaded,
                       ///< oversized_frame, not_ready,
                       ///< unsupported_version,
                       ///< unsupported_architecture
  std::string detail;
  std::uint64_t seq = 0;
  bool retryable = false;  ///< resend later (backpressure)
  bool fatal = false;      ///< server closes the connection after this
};

// --- unified decode --------------------------------------------------------

enum class FrameKind : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kError = 3,
  kEval = 4,
  kEvalBatch = 5,
  kResult = 6,
  kResultBatch = 7,
  kPing = 8,
  kPong = 9,
  kBye = 10,
};

/// One decoded frame of any kind. Reused across frames: reset() keeps
/// vector/string capacity, so a session's steady-state decode path
/// allocates nothing.
struct AnyFrame {
  FrameKind kind = FrameKind::kBye;
  std::uint64_t seq = 0;
  HelloFrame hello;
  WelcomeFrame welcome;
  ErrorFrame error;
  std::vector<core::EvalRequest> requests;    ///< eval / eval_batch
  std::vector<core::EvalResponse> responses;  ///< result / result_batch
  void reset();
};

enum class DecodeStatus {
  kOk,
  kUnparseable,   ///< shorter than its trailer, CRC mismatch, or empty
  kUnknownType,   ///< intact, but names a frame tag we don't know
  kMalformed,     ///< known type, invalid contents (reason in *error)
};

/// Verifies the CRC32 trailer of one payload, then decodes it into
/// *out (reset first). On anything but kOk, *error holds a
/// human-readable reason.
[[nodiscard]] DecodeStatus decode_frame(std::string_view payload,
                                        AnyFrame* out, std::string* error);

// --- encoders ----------------------------------------------------------------
// All append to *out after clearing it, so callers thread one
// FrameBuffer through their whole write path and reach steady-state
// zero allocation.

void encode_hello_frame(const HelloFrame& hello, std::string* out);
void encode_welcome_frame(const WelcomeFrame& welcome, std::string* out);
void encode_error_frame(const ErrorFrame& error, std::string* out);
void encode_eval_frame(std::uint64_t seq, const core::EvalRequest& request,
                       std::string* out);
void encode_eval_batch_frame(std::uint64_t seq,
                             std::span<const core::EvalRequest> requests,
                             std::string* out);
void encode_result_frame(std::uint64_t seq,
                         const core::EvalResponse& response,
                         std::string* out);
void encode_result_batch_frame(
    std::uint64_t seq, std::span<const core::EvalResponse> responses,
    std::string* out);
void encode_ping_frame(std::uint64_t seq, std::string* out);
void encode_pong_frame(std::uint64_t seq, std::string* out);
void encode_bye_frame(std::string* out);

// --- Framing-taking forms ----------------------------------------------------

/// Kept only because perfbench/ftbench.cpp names it (a later
/// benchmark-only change can remove it); same as the form above.
[[nodiscard]] inline DecodeStatus decode_frame(Framing /*framing*/,
                                               std::string_view payload,
                                               AnyFrame* out,
                                               std::string* error) {
  return decode_frame(payload, out, error);
}

/// Kept only because perfbench/ftbench.cpp names it (a later
/// benchmark-only change can remove it); same as the form above.
inline void encode_eval_batch_frame(
    Framing /*framing*/, std::uint64_t seq,
    std::span<const core::EvalRequest> requests, std::string* out) {
  encode_eval_batch_frame(seq, requests, out);
}

/// Kept only because perfbench/ftbench.cpp names it (a later
/// benchmark-only change can remove it); same as the form above.
inline void encode_result_batch_frame(
    Framing /*framing*/, std::uint64_t seq,
    std::span<const core::EvalResponse> responses, std::string* out) {
  encode_result_batch_frame(seq, responses, out);
}

}  // namespace ft::service
