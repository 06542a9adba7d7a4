// The ONE way to reach an ftuned daemon: service::connect(Endpoint,
// ConnectOptions) dials, handshakes (hello -> welcome, including the
// protocol version check) and returns a Session owning the socket,
// the daemon's welcome and the transport knobs. Client wraps a
// Session with the RPC surface; FleetBackend holds one Session-backed
// Client per endpoint. Before this existed, dial/handshake logic was
// duplicated across client.cpp and fleet.cpp and grew apart; now a
// protocol change lands in exactly one place.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "service/chaos.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace ft::service {

/// One dialable daemon address. Keeps the original spec string (the
/// fleet displays and hashes it) next to the parsed form.
struct Endpoint {
  std::string spec;  ///< "unix:PATH" or "tcp:host:port"
  Address address;

  /// Throws ServiceError("bad_address") for anything unparseable.
  [[nodiscard]] static Endpoint parse(const std::string& spec) {
    return Endpoint{spec, Address::parse(spec)};
  }
};

/// The evaluation context a session greets for. The
/// measurement-relevant option subset is what selects the daemon
/// workspace, so this must match the local tuner's configuration for
/// bit-identity to hold.
struct WorkspaceSpec {
  std::string program;  ///< benchmark name (programs::by_name)
  std::string arch;     ///< machine::architecture_by_name key
  compiler::Personality personality = compiler::Personality::kIcc;
  core::FuncyTunerOptions options;
};

/// Transport knobs for one session. All are plumbed from the ftune
/// CLI (`--io-timeout`); the defaults match it.
struct ClientOptions {
  /// Per-frame recv/send deadline in seconds. A peer that accepts and
  /// then goes silent surfaces as a retryable ServiceError("timeout")
  /// instead of a hang. <= 0 disables the deadline.
  double io_timeout_seconds = 30.0;
  /// Bounded patience for retryable "overloaded" refusals: at most
  /// this many resends of the same frame before giving up loudly.
  int overload_max_attempts = 8;
  /// First retry sleeps this long; each further retry doubles it
  /// (plus deterministic jitter), so 8 attempts ~= 2.5 s total.
  double overload_base_sleep_ms = 10.0;
  /// Seed for the jitter stream. Deterministic so two runs of the same
  /// command back off identically (bit-identity covers timing-free
  /// outputs only, but reproducible schedules make hangs debuggable).
  std::uint64_t jitter_seed = 0;
  /// Client-side fault injection (--chaos-seed / FT_CHAOS_SEED; the
  /// env default means ANY existing run can be replayed under chaos).
  /// Disabled unless the seed is nonzero.
  chaos::ChaosConfig chaos = chaos::config_from_env();

  [[nodiscard]] int io_timeout_ms() const noexcept {
    return io_timeout_seconds > 0
               ? static_cast<int>(io_timeout_seconds * 1000.0)
               : -1;
  }
};

struct ConnectOptions {
  WorkspaceSpec workspace;
  /// Ignored; kept only because perfbench/ftbench.cpp names it (a
  /// later benchmark-only change can remove it).
  std::vector<Framing> framings = {Framing::kBinaryCrc};
  ClientOptions transport;
};

/// One connected, greeted transport: the socket and the daemon's
/// welcome (max_batch, served archs). Move-only; closing is orderly
/// (bye) only when the owner says so - Session itself just closes the
/// fd.
class Session {
 public:
  Session() = default;
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] bool valid() const noexcept { return socket_.valid(); }
  [[nodiscard]] int fd() const noexcept { return socket_.fd(); }
  [[nodiscard]] const WelcomeFrame& welcome() const noexcept {
    return welcome_;
  }
  [[nodiscard]] const ClientOptions& transport() const noexcept {
    return transport_;
  }
  [[nodiscard]] int io_timeout_ms() const noexcept {
    return transport_.io_timeout_ms();
  }
  /// The session's fault injector; nullptr when chaos is disabled.
  [[nodiscard]] chaos::ChaosEngine* chaos() const noexcept {
    return chaos_.get();
  }

  /// Tears down the transport from ANY thread: a blocked recv/send in
  /// another thread wakes immediately with a transport error.
  void abort() noexcept { socket_.shutdown_both(); }
  void close() noexcept { socket_.close(); }

 private:
  friend Session connect(const Endpoint& endpoint,
                         const ConnectOptions& options);

  Socket socket_;
  WelcomeFrame welcome_;
  ClientOptions transport_;
  std::shared_ptr<chaos::ChaosEngine> chaos_;
};

/// Dials, sends hello and reads welcome | error. Throws ServiceError:
/// the server's error code on a refusal, "connect"/"timeout" on
/// transport failure, "bad_frame" when the reply is not a valid
/// handshake, "unsupported_version" when the welcome names another
/// protocol version.
[[nodiscard]] Session connect(const Endpoint& endpoint,
                              const ConnectOptions& options);

}  // namespace ft::service
