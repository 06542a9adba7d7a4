// The binary layout of every ftuned frame. protocol.cpp seals each
// payload with a CRC32 trailer (binary-crc32, the one wire encoding);
// the functions here read and write the layout beneath that trailer.
//
// Layout: every payload is `u8 tag, u64le seq, fields...`. All
// integers are little-endian fixed width; doubles are their IEEE-754
// bit pattern as u64le (bit-exactness is structural - no %.17g
// round-trip argument needed); strings are u32le length + raw bytes;
// compilation vectors are u32le count + raw choice bytes.
//
//   tag  frame         fields after the (tag, seq) header
//   ---  ------------  ------------------------------------------------
//    1   hello         u32 protocol, str program, str arch,
//                      str personality, u64 seed, f64 noise_sigma,
//                      f64 attribution_sigma, f64 fault_rate,
//                      u64 fault_seed, f64 compile_share,
//                      f64 crash_share, f64 timeout_share,
//                      f64 outlier_rate, f64 outlier_min_scale,
//                      f64 outlier_max_scale
//    2   welcome       u32 protocol, str server, u64 session,
//                      u64 max_batch, u32 arch_count, str* archs
//    3   error         str code, str detail, u8 retryable, u8 fatal
//    4   eval          request
//    5   eval_batch    u32 count, request*
//    6   result        response
//    7   result_batch  u32 count, response*
//    8   ping          -
//    9   pong          -
//   10   bye           -
//
//   request  = u32 loop_count, cv* loops, cv nonloop, u64 rep_base,
//              u32 repetitions, u8 instrumented, u8 noise,
//              u8 aggregate (0 mean, 1 median, 2 trimmed)
//   response = u8 served (0 run, 1 cache, 2 journal), u32 attempts,
//              u64 modules_compiled, u8 ok;
//              ok:  f64 end_to_end, f64 stddev, u32 loop_count, f64*
//              !ok: str fault_kind, str detail
//
// hello and welcome lead with the protocol version, so a peer of
// another version is recognized before any field whose layout may
// have changed: such a frame decodes with only `caps.protocol` read,
// and the receiver refuses it as "unsupported_version".
//
// The decoder is fuzz-safe by construction: a bounds-checked cursor
// rejects any truncated field, and element counts are validated
// against the bytes actually remaining before any allocation, so a
// forged count cannot force a huge reserve.
#pragma once

#include "service/protocol.hpp"

namespace ft::service {

// Encoders append to *out after clearing it (same contract as the
// encoders in protocol.hpp, which call these and then seal).
void binary_encode_hello(const HelloFrame& hello, std::string* out);
void binary_encode_welcome(const WelcomeFrame& welcome, std::string* out);
void binary_encode_error(const ErrorFrame& error, std::string* out);
void binary_encode_eval(std::uint64_t seq,
                        const core::EvalRequest& request, std::string* out);
void binary_encode_eval_batch(std::uint64_t seq,
                              std::span<const core::EvalRequest> requests,
                              std::string* out);
void binary_encode_result(std::uint64_t seq,
                          const core::EvalResponse& response,
                          std::string* out);
void binary_encode_result_batch(
    std::uint64_t seq, std::span<const core::EvalResponse> responses,
    std::string* out);
void binary_encode_ping(std::uint64_t seq, std::string* out);
void binary_encode_pong(std::uint64_t seq, std::string* out);
void binary_encode_bye(std::string* out);

/// Decodes one binary payload (trailer already stripped) into *out
/// (reset first). kUnparseable for an empty payload; kUnknownType for
/// a full header whose tag we don't know; kMalformed (reason in
/// *error) for a truncated header or a known tag with invalid or
/// truncated contents.
[[nodiscard]] DecodeStatus binary_decode_frame(std::string_view payload,
                                               AnyFrame* out,
                                               std::string* error);

}  // namespace ft::service
