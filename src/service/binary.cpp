#include "service/binary.hpp"

#include <bit>
#include <cstring>

namespace ft::service {

namespace {

// --- primitive writers (append-only) ---------------------------------------

void put_u8(std::string* out, std::uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void put_u32(std::string* out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  out->append(bytes, sizeof(bytes));
}

void put_u64(std::string* out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  out->append(bytes, sizeof(bytes));
}

void put_f64(std::string* out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_string(std::string* out, std::string_view text) {
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out->append(text.data(), text.size());
}

void put_cv(std::string* out, const flags::CompilationVector& cv) {
  put_u32(out, static_cast<std::uint32_t>(cv.size()));
  for (std::size_t i = 0; i < cv.size(); ++i) {
    put_u8(out, cv[i]);
  }
}

void put_header(std::string* out, FrameKind kind, std::uint64_t seq) {
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u64(out, seq);
}

void put_request(std::string* out, const core::EvalRequest& request) {
  put_u32(out,
          static_cast<std::uint32_t>(request.assignment.loop_cvs.size()));
  for (const flags::CompilationVector& cv : request.assignment.loop_cvs) {
    put_cv(out, cv);
  }
  put_cv(out, request.assignment.nonloop_cv);
  put_u64(out, request.rep_base);
  put_u32(out, static_cast<std::uint32_t>(request.repetitions));
  put_u8(out, request.instrumented ? 1 : 0);
  put_u8(out, request.noise ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(request.aggregate));
}

void put_response(std::string* out, const core::EvalResponse& response) {
  put_u8(out, static_cast<std::uint8_t>(response.served_by));
  put_u32(out, static_cast<std::uint32_t>(response.outcome.attempts));
  put_u64(out, response.modules_compiled);
  put_u8(out, response.ok() ? 1 : 0);
  if (response.ok()) {
    // caliper_report is deliberately never serialized (bulky, consumed
    // only by the always-local profiling phase); the decoder recomputes
    // derived_nonloop_seconds exactly as the engine derives it.
    const machine::RunResult& result = response.outcome.result;
    put_f64(out, result.end_to_end);
    put_f64(out, result.stddev);
    put_u32(out, static_cast<std::uint32_t>(result.loop_seconds.size()));
    for (const double seconds : result.loop_seconds) {
      put_f64(out, seconds);
    }
  } else {
    put_string(out, core::to_string(response.outcome.error.kind));
    put_string(out, response.outcome.error.detail);
  }
}

// --- bounds-checked reader -------------------------------------------------

struct Cursor {
  const unsigned char* at;
  const unsigned char* end;

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end - at);
  }

  bool u8(std::uint8_t* out) {
    if (remaining() < 1) return false;
    *out = *at++;
    return true;
  }

  bool u32(std::uint32_t* out) {
    if (remaining() < 4) return false;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(at[i]) << (8 * i);
    }
    at += 4;
    *out = value;
    return true;
  }

  bool u64(std::uint64_t* out) {
    if (remaining() < 8) return false;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    }
    at += 8;
    *out = value;
    return true;
  }

  bool f64(double* out) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  bool string(std::string* out) {
    std::uint32_t length = 0;
    if (!u32(&length) || remaining() < length) return false;
    out->assign(reinterpret_cast<const char*>(at), length);
    at += length;
    return true;
  }

  bool cv(flags::CompilationVector* out) {
    std::uint32_t count = 0;
    if (!u32(&count) || remaining() < count) return false;
    std::vector<std::uint8_t> choices(at, at + count);
    at += count;
    *out = flags::CompilationVector(std::move(choices));
    return true;
  }
};

bool read_archs(Cursor* cursor, std::vector<std::string>* out,
                std::string* error) {
  std::uint32_t count = 0;
  if (!cursor->u32(&count)) {
    *error = "truncated arch count";
    return false;
  }
  // 4 bytes minimum per serialized arch name: a forged count cannot
  // reserve past what the payload could possibly hold.
  if (count > cursor->remaining() / 4 + 1) {
    *error = "arch count exceeds payload";
    return false;
  }
  out->clear();
  out->resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!cursor->string(&(*out)[i])) {
      *error = "truncated arch name";
      return false;
    }
  }
  return true;
}

bool read_request(Cursor* cursor, core::EvalRequest* out,
                  std::string* error) {
  std::uint32_t loop_count = 0;
  if (!cursor->u32(&loop_count)) {
    *error = "truncated request";
    return false;
  }
  if (loop_count > cursor->remaining() / 4 + 1) {
    *error = "request loop count exceeds payload";
    return false;
  }
  out->assignment.loop_cvs.clear();
  out->assignment.loop_cvs.resize(loop_count);
  for (std::uint32_t i = 0; i < loop_count; ++i) {
    if (!cursor->cv(&out->assignment.loop_cvs[i])) {
      *error = "truncated request loop CV";
      return false;
    }
  }
  std::uint32_t repetitions = 0;
  std::uint8_t instrumented = 0;
  std::uint8_t noise = 0;
  std::uint8_t aggregate = 0;
  if (!cursor->cv(&out->assignment.nonloop_cv) ||
      !cursor->u64(&out->rep_base) || !cursor->u32(&repetitions) ||
      !cursor->u8(&instrumented) || !cursor->u8(&noise) ||
      !cursor->u8(&aggregate)) {
    *error = "truncated request fields";
    return false;
  }
  if (repetitions < 1 || repetitions > 1000000) {
    *error = "request reps field is malformed";
    return false;
  }
  if (aggregate > static_cast<std::uint8_t>(
                      machine::Aggregation::kTrimmedMean)) {
    *error = "request agg field is malformed";
    return false;
  }
  out->repetitions = static_cast<int>(repetitions);
  out->instrumented = instrumented != 0;
  out->noise = noise != 0;
  out->aggregate = static_cast<machine::Aggregation>(aggregate);
  return true;
}

bool read_response(Cursor* cursor, core::EvalResponse* out,
                   std::string* error) {
  std::uint8_t served = 0;
  std::uint32_t attempts = 0;
  std::uint64_t compiled = 0;
  std::uint8_t ok = 0;
  if (!cursor->u8(&served) || !cursor->u32(&attempts) ||
      !cursor->u64(&compiled) || !cursor->u8(&ok)) {
    *error = "truncated response";
    return false;
  }
  if (served > static_cast<std::uint8_t>(
                   core::EvalServedBy::kJournalReplay)) {
    *error = "response served field is malformed";
    return false;
  }
  out->served_by = static_cast<core::EvalServedBy>(served);
  out->outcome.attempts = static_cast<int>(attempts);
  out->modules_compiled = static_cast<std::size_t>(compiled);
  if (ok == 0) {
    std::string fault;
    if (!cursor->string(&fault) ||
        !cursor->string(&out->outcome.error.detail)) {
      *error = "truncated response fault";
      return false;
    }
    out->outcome.error.kind = core::eval_fault_from_string(fault);
    if (out->outcome.error.kind == core::EvalFault::kNone) {
      *error = "failed response has an unknown fault kind";
      return false;
    }
    out->outcome.result = machine::RunResult{};
    return true;
  }
  out->outcome.error = core::EvalError{};
  machine::RunResult& result = out->outcome.result;
  std::uint32_t loop_count = 0;
  if (!cursor->f64(&result.end_to_end) || !cursor->f64(&result.stddev) ||
      !cursor->u32(&loop_count)) {
    *error = "truncated response measurements";
    return false;
  }
  if (loop_count > cursor->remaining() / 8) {
    *error = "response loop count exceeds payload";
    return false;
  }
  result.loop_seconds.clear();
  result.loop_seconds.resize(loop_count);
  double loop_sum = 0.0;
  for (std::uint32_t i = 0; i < loop_count; ++i) {
    if (!cursor->f64(&result.loop_seconds[i])) {
      *error = "truncated response loop seconds";
      return false;
    }
    loop_sum += result.loop_seconds[i];
  }
  // Not transmitted; recompute exactly as the engine derives it.
  result.derived_nonloop_seconds = result.end_to_end - loop_sum;
  return true;
}

}  // namespace

void binary_encode_hello(const HelloFrame& hello, std::string* out) {
  out->clear();
  put_header(out, FrameKind::kHello, 0);
  put_u32(out, static_cast<std::uint32_t>(hello.caps.protocol));
  put_string(out, hello.program);
  put_string(out, hello.arch);
  put_string(out, hello.personality);
  put_u64(out, hello.options.seed);
  put_f64(out, hello.options.noise_sigma_rel);
  put_f64(out, hello.options.attribution_sigma);
  const machine::FaultConfig& faults = hello.options.faults;
  put_f64(out, faults.rate);
  put_u64(out, faults.seed);
  put_f64(out, faults.compile_share);
  put_f64(out, faults.crash_share);
  put_f64(out, faults.timeout_share);
  put_f64(out, faults.outlier_rate);
  put_f64(out, faults.outlier_min_scale);
  put_f64(out, faults.outlier_max_scale);
}

void binary_encode_welcome(const WelcomeFrame& welcome, std::string* out) {
  out->clear();
  put_header(out, FrameKind::kWelcome, 0);
  put_u32(out, static_cast<std::uint32_t>(welcome.caps.protocol));
  put_string(out, welcome.server);
  put_u64(out, welcome.session);
  put_u64(out, static_cast<std::uint64_t>(welcome.max_batch));
  put_u32(out, static_cast<std::uint32_t>(welcome.caps.archs.size()));
  for (const std::string& arch : welcome.caps.archs) {
    put_string(out, arch);
  }
}

void binary_encode_error(const ErrorFrame& error, std::string* out) {
  out->clear();
  put_header(out, FrameKind::kError, error.seq);
  put_string(out, error.code);
  put_string(out, error.detail);
  put_u8(out, error.retryable ? 1 : 0);
  put_u8(out, error.fatal ? 1 : 0);
}

void binary_encode_eval(std::uint64_t seq,
                        const core::EvalRequest& request,
                        std::string* out) {
  out->clear();
  put_header(out, FrameKind::kEval, seq);
  put_request(out, request);
}

void binary_encode_eval_batch(std::uint64_t seq,
                              std::span<const core::EvalRequest> requests,
                              std::string* out) {
  out->clear();
  put_header(out, FrameKind::kEvalBatch, seq);
  put_u32(out, static_cast<std::uint32_t>(requests.size()));
  for (const core::EvalRequest& request : requests) {
    put_request(out, request);
  }
}

void binary_encode_result(std::uint64_t seq,
                          const core::EvalResponse& response,
                          std::string* out) {
  out->clear();
  put_header(out, FrameKind::kResult, seq);
  put_response(out, response);
}

void binary_encode_result_batch(
    std::uint64_t seq, std::span<const core::EvalResponse> responses,
    std::string* out) {
  out->clear();
  put_header(out, FrameKind::kResultBatch, seq);
  put_u32(out, static_cast<std::uint32_t>(responses.size()));
  for (const core::EvalResponse& response : responses) {
    put_response(out, response);
  }
}

void binary_encode_ping(std::uint64_t seq, std::string* out) {
  out->clear();
  put_header(out, FrameKind::kPing, seq);
}

void binary_encode_pong(std::uint64_t seq, std::string* out) {
  out->clear();
  put_header(out, FrameKind::kPong, seq);
}

void binary_encode_bye(std::string* out) {
  out->clear();
  put_header(out, FrameKind::kBye, 0);
}

DecodeStatus binary_decode_frame(std::string_view payload, AnyFrame* out,
                                 std::string* error) {
  out->reset();
  error->clear();
  Cursor cursor{
      reinterpret_cast<const unsigned char*>(payload.data()),
      reinterpret_cast<const unsigned char*>(payload.data()) +
          payload.size(),
  };
  std::uint8_t tag = 0;
  if (!cursor.u8(&tag)) {
    *error = "empty frame";
    return DecodeStatus::kUnparseable;
  }
  if (!cursor.u64(&out->seq)) {
    *error = "truncated frame header";
    return DecodeStatus::kMalformed;
  }
  if (tag < static_cast<std::uint8_t>(FrameKind::kHello) ||
      tag > static_cast<std::uint8_t>(FrameKind::kBye)) {
    // The seq is read first so the refusal can name the frame.
    *error = "unknown frame tag " + std::to_string(tag);
    return DecodeStatus::kUnknownType;
  }
  out->kind = static_cast<FrameKind>(tag);
  const auto malformed = [error](const char* reason) {
    if (error->empty()) *error = reason;
    return DecodeStatus::kMalformed;
  };
  switch (out->kind) {
    case FrameKind::kHello: {
      HelloFrame& hello = out->hello;
      std::uint32_t protocol = 0;
      if (!cursor.u32(&protocol)) return malformed("truncated hello");
      hello.caps.protocol = static_cast<int>(protocol);
      // Past the version, another version's layout is not ours to read:
      // the receiver refuses the frame on caps.protocol alone.
      if (hello.caps.protocol != kProtocolVersion) return DecodeStatus::kOk;
      const machine::FaultConfig defaults{};
      hello.options.faults = defaults;
      if (!cursor.string(&hello.program) || !cursor.string(&hello.arch) ||
          !cursor.string(&hello.personality) ||
          !cursor.u64(&hello.options.seed) ||
          !cursor.f64(&hello.options.noise_sigma_rel) ||
          !cursor.f64(&hello.options.attribution_sigma) ||
          !cursor.f64(&hello.options.faults.rate) ||
          !cursor.u64(&hello.options.faults.seed) ||
          !cursor.f64(&hello.options.faults.compile_share) ||
          !cursor.f64(&hello.options.faults.crash_share) ||
          !cursor.f64(&hello.options.faults.timeout_share) ||
          !cursor.f64(&hello.options.faults.outlier_rate) ||
          !cursor.f64(&hello.options.faults.outlier_min_scale) ||
          !cursor.f64(&hello.options.faults.outlier_max_scale)) {
        return malformed("truncated hello");
      }
      if (hello.program.empty()) {
        return malformed("hello lacks a program name");
      }
      if (hello.arch.empty()) {
        return malformed("hello lacks an architecture name");
      }
      if (hello.personality != "icc" && hello.personality != "gcc") {
        return malformed("hello personality must be icc or gcc");
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kWelcome: {
      WelcomeFrame& welcome = out->welcome;
      std::uint32_t protocol = 0;
      if (!cursor.u32(&protocol)) return malformed("truncated welcome");
      welcome.caps.protocol = static_cast<int>(protocol);
      if (welcome.caps.protocol != kProtocolVersion) {
        return DecodeStatus::kOk;  // see the hello case
      }
      std::uint64_t max_batch = 0;
      if (!cursor.string(&welcome.server) ||
          !cursor.u64(&welcome.session) || !cursor.u64(&max_batch)) {
        return malformed("truncated welcome");
      }
      if (max_batch == 0) {
        return malformed("welcome frame is incomplete");
      }
      welcome.max_batch = static_cast<std::size_t>(max_batch);
      if (!read_archs(&cursor, &welcome.caps.archs, error)) {
        return DecodeStatus::kMalformed;
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kError: {
      std::uint8_t retryable = 0;
      std::uint8_t fatal = 0;
      if (!cursor.string(&out->error.code) ||
          !cursor.string(&out->error.detail) || !cursor.u8(&retryable) ||
          !cursor.u8(&fatal)) {
        return malformed("truncated error frame");
      }
      out->error.seq = out->seq;
      out->error.retryable = retryable != 0;
      out->error.fatal = fatal != 0;
      return DecodeStatus::kOk;
    }
    case FrameKind::kEval: {
      out->requests.resize(1);
      if (!read_request(&cursor, &out->requests[0], error)) {
        return DecodeStatus::kMalformed;
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kEvalBatch: {
      std::uint32_t count = 0;
      if (!cursor.u32(&count)) return malformed("truncated eval_batch");
      // >= 19 bytes per serialized request.
      if (count > cursor.remaining() / 19 + 1) {
        return malformed("eval_batch count exceeds payload");
      }
      out->requests.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!read_request(&cursor, &out->requests[i], error)) {
          return DecodeStatus::kMalformed;
        }
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kResult: {
      out->responses.resize(1);
      if (!read_response(&cursor, &out->responses[0], error)) {
        return DecodeStatus::kMalformed;
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kResultBatch: {
      std::uint32_t count = 0;
      if (!cursor.u32(&count)) return malformed("truncated result_batch");
      // >= 14 bytes per serialized response.
      if (count > cursor.remaining() / 14 + 1) {
        return malformed("result_batch count exceeds payload");
      }
      out->responses.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!read_response(&cursor, &out->responses[i], error)) {
          return DecodeStatus::kMalformed;
        }
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kPing:
    case FrameKind::kPong:
    case FrameKind::kBye:
      return DecodeStatus::kOk;
  }
  return DecodeStatus::kUnknownType;
}

}  // namespace ft::service
