#pragma once

// Span recording for the traced benchmark run, done entirely from outside
// the library: the benchmark opens a span around each call it makes into a
// layer, and two decorators over the library's own interfaces
// (decoder::Decoder and netsim::RouteProvider) open spans around the calls
// the library makes back into them. Spans are kept in memory and written
// out when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "decoder/decoder.h"
#include "host_clock.h"
#include "netsim/workload.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< layer name, a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index of the enclosing span; -1 = top level
  int trial = -1;          ///< batch trial or traffic stream index
  long long arrival = -1;  ///< arrival index within the stream; -1 = none
};

/// Nested span recorder for one single-threaded run.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 18); }

  void set_trial(int trial) { trial_ = trial; }
  int begin(const char* name, long long arrival = -1);
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  void write_csv(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int trial_ = -1;
};

/// Opens a span for the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, long long arrival = -1)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, arrival) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-layer totals derived from a span list: a layer's self time is its
/// spans' durations minus the parts their child spans cover.
struct LayerStats {
  long long calls = 0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;  ///< kept only for percentile layers
};

std::map<std::string, LayerStats> layer_stats(
    const std::vector<Span>& spans,
    const std::vector<std::string>& keep_durations);

/// Forwards each decode overload to the same overload of the wrapped
/// decoder, inside a "decoder.decode" span.
class TracingDecoder final : public surfnet::decoder::Decoder {
 public:
  TracingDecoder(const surfnet::decoder::Decoder& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  std::vector<char> decode(
      const surfnet::decoder::DecodeInput& input) const override {
    ScopedSpan span(tracer_, "decoder.decode");
    return inner_->decode(input);
  }
  const std::vector<char>& decode(
      const surfnet::decoder::DecodeInput& input,
      surfnet::decoder::DecodeWorkspace& ws) const override {
    ScopedSpan span(tracer_, "decoder.decode");
    return inner_->decode(input, ws);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  const surfnet::decoder::Decoder* inner_;
  Tracer* tracer_;
};

/// Wraps a RouteProvider: records the admitted routes' fidelity estimate
/// (the benchmark's traffic output) and, with a tracer, opens a span around
/// every admit, release and reoptimize call. With a clock, it lets the clock
/// probe the host between admits, so a long stream is scaled piece by piece.
class ObservedProvider final : public surfnet::netsim::RouteProvider {
 public:
  ObservedProvider(surfnet::netsim::RouteProvider& inner, Tracer* tracer,
                   HostClock* clock)
      : inner_(&inner), tracer_(tracer), clock_(clock) {}

  std::optional<surfnet::netsim::AdmittedRoute> admit(int src, int dst,
                                                      int codes) override;
  void release(const surfnet::netsim::AdmittedRoute& route) override {
    ScopedSpan span(tracer_, "routing.release");
    inner_->release(route);
  }
  double reoptimize() override {
    ScopedSpan span(tracer_, "routing.reoptimize");
    return inner_->reoptimize();
  }
  void set_noise_scale(double scale) override {
    inner_->set_noise_scale(scale);
  }

  long long admit_calls() const { return admit_calls_; }
  long long admits() const { return admits_; }
  /// Sum over admitted routes of the engine's fidelity estimate
  /// max(0, 1 - noise) (netsim/workload.cpp).
  double fidelity_sum() const { return fidelity_sum_; }

 private:
  surfnet::netsim::RouteProvider* inner_;
  Tracer* tracer_;
  HostClock* clock_;
  long long admit_calls_ = 0;
  long long admits_ = 0;
  double fidelity_sum_ = 0.0;
};

}  // namespace perfbench
