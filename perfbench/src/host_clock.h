#pragma once

// Reference timing. Other tenants of a shared host slow one thread down by
// up to 1.6x for seconds at a time, so wall times of the same code on the
// same inputs spread by 20-45% between runs, and taking the fastest of many
// repetitions does not remove that. The clock therefore runs a fixed probe
// kernel between stretches of measured work and scales each stretch by
// sqrt(kProbeReferenceMs / t), where t is the time the most recent probe
// took. The square root is measured, not assumed: the probe slows down
// about twice as much (in log terms) as the batch trials do, and of the
// exponents 0.3-1.0 tried on runs of one seed, 0.5 left the least spread
// (3-4% between quartiles, against 10-27% for wall time). The probe is the
// benchmark's own code, so a change to the library moves the scaled time
// exactly as it moves the wall time.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Wall and reference duration of one timed item, in milliseconds.
struct Reading {
  double wall_ms = 0.0;
  double ref_ms = 0.0;
};

class HostClock {
 public:
  /// The probe's time on the reference host (one 2.1 GHz Xeon vCPU at its
  /// least contended). It sets only the scale of reference milliseconds.
  static constexpr double kProbeReferenceMs = 1.4;
  /// Measured work between two probes.
  static constexpr double kProbeEveryMs = 20.0;

  /// A disabled clock never probes and reads reference time as wall time;
  /// the traced run uses one so that its spans cover all of its wall time.
  explicit HostClock(bool enabled);

  /// Starts timing an item, probing first when one is due.
  void begin();
  /// Inside a long item: when a probe is due, runs it outside the item's
  /// time and rescales the rest of the item by the new reading.
  void tick();
  /// Ends the item begun last and returns its durations.
  Reading end();

  long long probes() const { return static_cast<long long>(probe_ms_.size()); }
  /// Median probe time so far; kProbeReferenceMs when disabled.
  double probe_median_ms() const;

 private:
  void probe();
  /// Adds the open stretch to the item and to the work since the probe.
  void close_stretch(std::int64_t now);

  bool enabled_;
  double scale_ = 1.0;  ///< sqrt(kProbeReferenceMs / last probe time)
  std::int64_t stretch_start_ = 0;
  double work_since_probe_ms_ = 0.0;
  Reading item_;
  std::vector<double> probe_ms_;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> heap_;
};

}  // namespace perfbench
