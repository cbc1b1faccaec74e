#include "spans.h"

#include <algorithm>

namespace perfbench {

int Tracer::begin(const char* name, long long arrival) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trial = trial_;
  span.arrival = arrival;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::write_csv(std::FILE* out) const {
  std::fprintf(out, "name,start_ns,end_ns,parent,trial,arrival\n");
  for (const Span& s : spans_)
    std::fprintf(out, "%s,%lld,%lld,%d,%d,%lld\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.trial,
                 s.arrival);
}

std::map<std::string, LayerStats> layer_stats(
    const std::vector<Span>& spans,
    const std::vector<std::string>& keep_durations) {
  // Child time per span, then self time per layer name.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;

  std::map<std::string, LayerStats> stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerStats& layer = stats[s.name];
    const auto duration = s.end_ns - s.start_ns;
    ++layer.calls;
    layer.self_ns += static_cast<double>(duration - child_ns[i]);
    if (std::find(keep_durations.begin(), keep_durations.end(), s.name) !=
        keep_durations.end())
      layer.durations_ns.push_back(static_cast<double>(duration));
  }
  return stats;
}

std::optional<surfnet::netsim::AdmittedRoute> ObservedProvider::admit(
    int src, int dst, int codes) {
  if (clock_) clock_->tick();
  std::optional<surfnet::netsim::AdmittedRoute> route;
  {
    ScopedSpan span(tracer_, "routing.admit", admit_calls_);
    route = inner_->admit(src, dst, codes);
  }
  ++admit_calls_;
  if (route) {
    ++admits_;
    fidelity_sum_ += std::max(0.0, 1.0 - route->noise);
  }
  return route;
}

}  // namespace perfbench
