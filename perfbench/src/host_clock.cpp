#include "host_clock.h"

#include <algorithm>
#include <cmath>

#include "spans.h"

namespace perfbench {
namespace {

/// Random read-modify-writes over a 1 MiB table, feeding a bounded binary
/// heap: branchy integer work with cache misses, like the LP, decoder and
/// simulator it stands next to. Of the kernels tried (arithmetic over
/// 256 KiB to 4 MiB tables, 16 MiB gathers, dense matrix-vector products)
/// this one, under the square root, tracked the slow-downs of the batch
/// workloads most closely.
constexpr std::size_t kTableWords = std::size_t{1} << 18;
constexpr std::size_t kHeapSize = 512;
constexpr int kProbeSteps = 20000;

std::uint64_t run_probe(std::vector<std::uint32_t>& table,
                        std::vector<std::uint64_t>& heap) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  heap.clear();
  for (int i = 0; i < kProbeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & (kTableWords - 1)];
    slot += static_cast<std::uint32_t>(x >> 32);
    heap.push_back((std::uint64_t{slot} << 16) | (x & 0xFFFF));
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > kHeapSize) {
      std::pop_heap(heap.begin(), heap.end());
      sum += heap.back() & 0xFFFF;
      heap.pop_back();
    }
  }
  return sum;
}

}  // namespace

HostClock::HostClock(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  table_.assign(kTableWords, 1);
  heap_.reserve(kHeapSize + 1);
  run_probe(table_, heap_);  // first touch of the table, untimed
}

void HostClock::probe() {
  static volatile std::uint64_t sink = 0;
  const auto t0 = now_ns();
  sink = sink + run_probe(table_, heap_);
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  probe_ms_.push_back(ms);
  scale_ = std::sqrt(kProbeReferenceMs / ms);
  work_since_probe_ms_ = 0.0;
}

void HostClock::begin() {
  if (enabled_ &&
      (probe_ms_.empty() || work_since_probe_ms_ >= kProbeEveryMs))
    probe();
  item_ = Reading{};
  stretch_start_ = now_ns();
}

void HostClock::close_stretch(std::int64_t now) {
  const double ms = static_cast<double>(now - stretch_start_) * 1e-6;
  item_.wall_ms += ms;
  item_.ref_ms += ms * scale_;
  work_since_probe_ms_ += ms;
}

void HostClock::tick() {
  if (!enabled_) return;
  const auto now = now_ns();
  const double open_ms = static_cast<double>(now - stretch_start_) * 1e-6;
  if (work_since_probe_ms_ + open_ms < kProbeEveryMs) return;
  close_stretch(now);
  probe();
  stretch_start_ = now_ns();
}

Reading HostClock::end() {
  close_stretch(now_ns());
  return item_;
}

double HostClock::probe_median_ms() const {
  if (probe_ms_.empty()) return kProbeReferenceMs;
  std::vector<double> sorted = probe_ms_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[(sorted.size() - 1) / 2];
}

}  // namespace perfbench
