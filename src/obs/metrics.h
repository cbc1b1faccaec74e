#pragma once

// Metrics plane of the observability layer: named counters, gauges,
// fixed-bucket histograms, and accumulated wall-clock timers, collected in
// a MetricsRegistry and exported as a stable-schema JSON document.
//
// Registries are single-threaded by design. Parallel engines give every
// worker (or every trial) its own registry and merge them in a fixed order
// afterwards: counter and histogram merges are integer sums, so the merged
// aggregates are exact and invariant under thread count; timer merges sum
// measured doubles in the same fixed order, so a given merge discipline is
// deterministic even though wall-clock values themselves vary run to run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace surfnet::obs {

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// finite buckets; one implicit overflow bucket catches everything above
/// the last bound. counts.size() == bounds.size() + 1.
struct Histogram {
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t total = 0;
  double sum = 0.0;

  void observe(double value) {
    std::size_t b = 0;
    while (b < bounds.size() && value > bounds[b]) ++b;
    ++counts[b];
    ++total;
    sum += value;
  }
};

class MetricsRegistry {
 public:
  /// Add `delta` to a monotonic counter (created at zero on first use).
  void count(const std::string& name, std::int64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Set a gauge to the latest observed value.
  void gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  /// Observe a value into a fixed-bucket histogram. The bounds are fixed
  /// by the first call for a name; later calls reuse the existing buckets.
  void observe(const std::string& name, double value,
               const std::vector<double>& bounds);
  /// Accumulate measured seconds into a timer.
  void time(const std::string& name, double seconds) {
    timers_[name] += seconds;
  }

  /// Merge `other` into this registry: counters, histogram buckets, and
  /// timers add; gauges take the other registry's latest value. Histogram
  /// bucket layouts must agree for shared names.
  void merge(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && timers_.empty() &&
           histograms_.empty();
  }

  std::int64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double gauge_value(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  double timer_seconds(const std::string& name) const {
    const auto it = timers_.find(name);
    return it == timers_.end() ? 0.0 : it->second;
  }
  const Histogram* histogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  /// Stable-schema JSON export (keys sorted; schema_version bumps on any
  /// breaking change):
  ///   {"schema_version": 1, "counters": {...}, "gauges": {...},
  ///    "timers": {...}, "histograms": {name: {"bounds": [...],
  ///    "counts": [...], "total": N, "sum": S}}}
  std::string to_json() const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, double> timers_;
  std::map<std::string, Histogram> histograms_;
};

/// RAII wall-clock timer scoped to a block; freely nestable (each scope
/// accumulates into its own name). A null registry makes it a no-op that
/// allocates nothing. `name` must outlive the timer, as a literal does.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, const char* name)
      : registry_(registry), name_(name) {
    if (registry_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (registry_)
      registry_->time(
          name_, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricsRegistry* registry_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace surfnet::obs
