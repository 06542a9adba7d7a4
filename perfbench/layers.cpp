#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>

namespace ftbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBuild: return "compiler.build";
    case Layer::kRun: return "machine.run";
    case Layer::kInstrumented: return "caliper.run";
    case Layer::kCell: return "core.cell";
    case Layer::kFrame: return "service.call_many";
  }
  return "?";
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

Recorder::Recorder(std::size_t span_cap)
    : shards_(std::make_unique<Shard[]>(kShards)), span_cap_(span_cap) {}

Recorder::Shard& Recorder::shard() {
  return shards_[thread_index() % kShards];
}

void Recorder::add(Layer layer, std::uint32_t parent, Clock::time_point t0,
                   Clock::time_point t1) {
  add_with_id(next_id(), layer, parent, t0, t1);
}

void Recorder::add_with_id(std::uint32_t id, Layer layer,
                           std::uint32_t parent, Clock::time_point t0,
                           Clock::time_point t1) {
  const double ms = ms_between(t0, t1);
  const bool keep =
      spans_offered_.fetch_add(1, std::memory_order_relaxed) < span_cap_;
  Shard& s = shard();
  std::lock_guard lock(s.mutex);
  const int i = static_cast<int>(layer);
  ++s.calls[i];
  s.busy_ms[i] += ms;
  s.samples_us[i].push_back(static_cast<float>(ms * 1000.0));
  if (keep) s.spans.push_back(Span{id, parent, layer, thread_index(), t0, t1});
}

void Recorder::add_modules_compiled(std::size_t modules) {
  Shard& s = shard();
  std::lock_guard lock(s.mutex);
  s.modules_compiled += modules;
}

LayerSummary Recorder::summary(Layer layer) const {
  const int i = static_cast<int>(layer);
  LayerSummary out;
  std::vector<double> samples;
  for (std::size_t k = 0; k < kShards; ++k) {
    const Shard& s = shards_[k];
    std::lock_guard lock(s.mutex);
    out.calls += s.calls[i];
    out.busy_ms += s.busy_ms[i];
    samples.insert(samples.end(), s.samples_us[i].begin(),
                   s.samples_us[i].end());
  }
  out.p50_us = median(std::move(samples));
  return out;
}

std::size_t Recorder::modules_compiled() const {
  std::size_t total = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    std::lock_guard lock(shards_[k].mutex);
    total += shards_[k].modules_compiled;
  }
  return total;
}

void Recorder::write_spans(std::ostream& out, Clock::time_point origin) const {
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << std::fixed << std::setprecision(3);
  for (std::size_t k = 0; k < kShards; ++k) {
    std::lock_guard lock(shards_[k].mutex);
    for (const Span& span : shards_[k].spans) {
      out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"name\":\"" << layer_name(span.layer)
          << "\",\"thread\":" << span.thread << ",\"t0_us\":" << us(span.t0)
          << ",\"t1_us\":" << us(span.t1) << "}\n";
    }
  }
}

TimingBackend::RawResult TimingBackend::run(
    const ft::compiler::ModuleAssignment& assignment,
    const ft::machine::RunOptions& options) {
  ft::compiler::Compiler& compiler = engine_->compiler();
  const std::size_t misses_before = compiler.cache_misses();
  const Clock::time_point t0 = Clock::now();
  const ft::compiler::Executable exe =
      compiler.build(engine_->program(), assignment);
  const Clock::time_point t1 = Clock::now();
  RawResult raw;
  raw.modules_compiled = compiler.cache_misses() - misses_before;
  raw.result = engine_->run(exe, *input_, options);
  const Clock::time_point t2 = Clock::now();
  recorder_->add(Layer::kBuild, parent_, t0, t1);
  recorder_->add(options.instrumented ? Layer::kInstrumented : Layer::kRun,
                 parent_, t1, t2);
  recorder_->add_modules_compiled(raw.modules_compiled);
  return raw;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double index = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(index));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail(std::vector<double> values, std::size_t beyond,
            double* percentile) {
  // Below the median nothing is a tail: with fewer than 2 * beyond
  // samples the median is reported (at percentile 50).
  if (values.size() < 2 * beyond) {
    if (percentile) *percentile = 50.0;
    return median(std::move(values));
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - 1 - beyond;
  if (percentile) {
    *percentile = 100.0 * static_cast<double>(rank + 1) /
                  static_cast<double>(values.size());
  }
  return values[rank];
}

}  // namespace ftbench
