// Time sources for the instrumentation library. The execution engine
// drives a VirtualClock (simulated seconds); WallClock lets the same
// annotation API time real code (used by the tuning-overhead bench and
// the caliper self-tests).
#pragma once

#include <chrono>

namespace ft::caliper {

/// Abstract monotonic time source, in seconds.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual double now() const = 0;
};

/// Simulation time: advanced explicitly by the execution engine.
class VirtualClock final : public Clock {
 public:
  [[nodiscard]] double now() const override { return time_; }
  void advance(double seconds) noexcept { time_ += seconds; }
  void set(double seconds) noexcept { time_ = seconds; }
  void reset() noexcept { time_ = 0.0; }

 private:
  double time_ = 0.0;
};

/// Real time from std::chrono::steady_clock.
class WallClock final : public Clock {
 public:
  WallClock() : origin_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double now() const override;

 private:
  std::chrono::steady_clock::time_point origin_;
};

}  // namespace ft::caliper
