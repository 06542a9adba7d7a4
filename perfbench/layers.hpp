// Per-layer timing for the benchmark runner. Everything here is timed
// from the benchmark's own side of the library's public API:
//
//  * TimingBackend is an EvalBackend that does exactly what
//    Evaluator::raw_run does inline (Compiler::build, then
//    ExecutionEngine::run) and times the two calls. Attaching it never
//    changes a result; it only adds two clock reads per call.
//  * Recorder collects those timings in per-thread shards (count, busy
//    time, per-call samples for percentiles) plus a bounded buffer of
//    spans that is written out as JSONL once the run is over.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "core/evaluator.hpp"
#include "machine/execution_engine.hpp"

namespace ftbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The layer boundaries the recorder times.
enum class Layer : int {
  kBuild = 0,         ///< compiler: Compiler::build
  kRun = 1,           ///< machine: plain ExecutionEngine::run
  kInstrumented = 2,  ///< caliper: instrumented ExecutionEngine::run
  kCell = 3,          ///< core: one whole tuning cell (main thread)
  kFrame = 4,         ///< service: one eval_batch round trip (client)
};
inline constexpr int kLayerCount = 5;

[[nodiscard]] const char* layer_name(Layer layer);

/// Summary of one layer over a recorder's lifetime.
struct LayerSummary {
  std::uint64_t calls = 0;
  double busy_ms = 0.0;
  double p50_us = 0.0;
};

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  Layer layer = Layer::kCell;
  std::uint32_t thread = 0;
  Clock::time_point t0;
  Clock::time_point t1;
};

class Recorder {
 public:
  /// Keeps at most `span_cap` spans; later calls still feed the layer
  /// totals.
  explicit Recorder(std::size_t span_cap = 100000);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Fresh span id (thread-safe).
  [[nodiscard]] std::uint32_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one timed call of `layer`. Thread-safe.
  void add(Layer layer, std::uint32_t parent, Clock::time_point t0,
           Clock::time_point t1);
  /// add() with a caller-chosen span id (for parents of other spans).
  void add_with_id(std::uint32_t id, Layer layer, std::uint32_t parent,
                   Clock::time_point t0, Clock::time_point t1);
  /// Modules that missed the compiler's object cache (the same
  /// cache_misses() difference Evaluator::raw_run charges).
  void add_modules_compiled(std::size_t modules);

  [[nodiscard]] LayerSummary summary(Layer layer) const;
  [[nodiscard]] std::size_t modules_compiled() const;

  /// Appends every kept span as one JSON line, times relative to
  /// `origin` in microseconds.
  void write_spans(std::ostream& out, Clock::time_point origin) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::uint64_t calls[kLayerCount] = {};
    double busy_ms[kLayerCount] = {};
    std::vector<float> samples_us[kLayerCount];
    std::size_t modules_compiled = 0;
    std::vector<Span> spans;
  };
  [[nodiscard]] Shard& shard();

  static constexpr std::size_t kShards = 64;
  std::unique_ptr<Shard[]> shards_;
  std::size_t span_cap_;
  std::atomic<std::size_t> spans_offered_{0};
  std::atomic<std::uint32_t> next_id_{1};
};

/// Small dense id of the calling thread (0, 1, 2, ... in first-use
/// order), used for shard selection and span attribution.
[[nodiscard]] std::uint32_t thread_index();

/// Raw measurement backend that times the compile and run calls of
/// Evaluator::raw_run's inline path. Borrows engine, input and recorder;
/// all must outlive it.
class TimingBackend final : public ft::core::EvalBackend {
 public:
  TimingBackend(ft::machine::ExecutionEngine& engine,
                const ft::ir::InputSpec& input, Recorder& recorder,
                std::uint32_t parent_span)
      : engine_(&engine),
        input_(&input),
        recorder_(&recorder),
        parent_(parent_span) {}

  [[nodiscard]] RawResult run(
      const ft::compiler::ModuleAssignment& assignment,
      const ft::machine::RunOptions& options) override;

 private:
  ft::machine::ExecutionEngine* engine_;
  const ft::ir::InputSpec* input_;
  Recorder* recorder_;
  std::uint32_t parent_;
};

/// Median of `values` (sorts a copy); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);
/// Value at the highest percentile that still has at least `beyond`
/// samples above it (the `beyond`+1-th largest), with that percentile
/// in *percentile; the median when fewer than 2 * `beyond` samples.
[[nodiscard]] double tail(std::vector<double> values, std::size_t beyond,
                          double* percentile);
/// Value at quantile q (0..1), interpolating linearly between ranks.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace ftbench
