#include "netsim/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netsim/event_queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace surfnet::netsim {

namespace {

/// Post-warmup latency histogram resolution; the last bucket overflows.
constexpr int kLatencyBuckets = 2048;

/// One admitted request holding capacity until its departure fires.
struct ActiveRequest {
  AdmittedRoute route;
  int arrival_slot = 0;
  int request_id = -1;
};

/// Inverse-transform exponential interarrival gap in whole slots. Drawing
/// exactly one uniform per gap — at the event-processing point, never per
/// slot — is what lets the stream skip empty slots without changing its
/// RNG stream.
int draw_gap(const WorkloadParams& params, util::Rng& rng) {
  const double gap = -std::log1p(-rng.uniform()) / params.arrival_rate;
  return static_cast<int>(std::min(gap, 1e9));
}

/// Weighted demand-class selection by inverse transform over the running
/// weight sum (one uniform, any class count).
int draw_class(const std::vector<DemandClass>& classes, double total_weight,
               util::Rng& rng) {
  const double target = rng.uniform() * total_weight;
  double acc = 0.0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    acc += classes[i].weight;
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(classes.size()) - 1;
}

}  // namespace

double TrafficResult::latency_percentile(double p) const {
  if (latency_count <= 0) return 0.0;
  const long long target = std::max<long long>(
      1, static_cast<long long>(std::ceil(p * latency_count)));
  long long seen = 0;
  for (std::size_t i = 0; i < latency_hist.size(); ++i) {
    seen += latency_hist[i];
    if (seen >= target) return static_cast<double>(i);
  }
  return static_cast<double>(latency_hist.empty() ? 0
                                                  : latency_hist.size() - 1);
}

TrafficResult run_traffic(const Topology& topology, RouteProvider& provider,
                          const WorkloadParams& params, util::Rng& rng,
                          SimEngine /*engine*/) {
  if (params.arrival_rate <= 0.0)
    throw std::invalid_argument("run_traffic: arrival_rate must be > 0");

  std::vector<int> users;
  for (int v = 0; v < topology.num_nodes(); ++v)
    if (topology.is_user(v)) users.push_back(v);
  if (users.size() < 2)
    throw std::invalid_argument("run_traffic: need at least two users");

  const std::vector<DemandClass> default_classes{DemandClass{}};
  const std::vector<DemandClass>& classes =
      params.classes.empty() ? default_classes : params.classes;
  double total_weight = 0.0;
  for (const auto& c : classes) {
    if (c.weight <= 0.0 || c.codes <= 0)
      throw std::invalid_argument(
          "run_traffic: demand classes need positive weight and codes");
    total_weight += c.weight;
  }

  const obs::Sink& sink = params.sink;
  TrafficResult result;
  result.latency_hist.assign(kLatencyBuckets + 1, 0);

  EventQueue queue;
  std::vector<ActiveRequest> active;
  std::vector<int> free_slots;  ///< recycled `active` indices (LIFO)
  long long scheduled_arrivals = 0;
  long long next_request_id = 0;
  int active_codes = 0;
  int ops_since_reopt = 0;

  const auto maybe_reoptimize = [&]() {
    if (params.reoptimize_every <= 0) return;
    if (++ops_since_reopt < params.reoptimize_every) return;
    ops_since_reopt = 0;
    const double headroom = provider.reoptimize();
    if (sink.metrics) {
      sink.metrics->count("traffic.reoptimizations");
      sink.metrics->gauge("traffic.headroom", headroom);
    }
  };

  const auto schedule_next_arrival = [&](int from_slot) {
    if (params.max_requests > 0 && scheduled_arrivals >= params.max_requests)
      return;
    const int gap = draw_gap(params, rng);
    if (from_slot > params.horizon_slots - gap) return;
    queue.push(from_slot + gap, EventClass::Arrival);
    ++scheduled_arrivals;
  };

  const auto process_arrival = [&](int slot) {
    const bool measured = slot >= params.warmup_slots;
    const long long request = next_request_id++;
    ++result.arrivals;
    if (measured) ++result.measured_arrivals;

    const int src_index = static_cast<int>(rng.below(users.size()));
    int dst_index = static_cast<int>(rng.below(users.size() - 1));
    if (dst_index >= src_index) ++dst_index;
    const int src = users[static_cast<std::size_t>(src_index)];
    const int dst = users[static_cast<std::size_t>(dst_index)];
    const int class_index = draw_class(classes, total_weight, rng);
    const DemandClass& cls = classes[static_cast<std::size_t>(class_index)];

    if (sink.trace)
      sink.trace->record(obs::Event::arrival(
          slot, static_cast<int>(request), src, dst, class_index));
    if (sink.metrics) sink.metrics->count("traffic.arrivals");

    const auto block = [&](BlockReason reason) {
      ++result.blocked;
      if (measured) {
        ++result.measured_blocked;
        ++result.blocked_by[static_cast<int>(reason)];
      }
      if (sink.trace)
        sink.trace->record(obs::Event::blocked(slot,
                                               static_cast<int>(request),
                                               static_cast<int>(reason)));
      if (sink.metrics) sink.metrics->count("traffic.blocked");
    };

    // The load cap is checked first; the provider is consulted only for
    // requests that pass it.
    if (params.max_active_codes > 0 &&
        active_codes + cls.codes > params.max_active_codes) {
      block(BlockReason::Load);
      return;
    }

    auto route = provider.admit(src, dst, cls.codes);
    if (!route) {
      block(BlockReason::Capacity);
      maybe_reoptimize();
      return;
    }
    // Route fidelity estimate from accumulated path noise.
    const double fidelity = std::max(0.0, 1.0 - route->noise);
    if (fidelity < cls.fidelity_floor) {
      provider.release(*route);
      block(BlockReason::Fidelity);
      maybe_reoptimize();
      return;
    }
    const int hops = static_cast<int>(route->path.size()) - 1;
    const int est_slots = kServiceBaseSlots + kServicePerHopSlots * hops;
    if (cls.deadline_slots > 0 && est_slots > cls.deadline_slots) {
      provider.release(*route);
      block(BlockReason::Deadline);
      maybe_reoptimize();
      return;
    }

    const int service =
        est_slots + static_cast<int>(rng.below(kServiceJitterSlots + 1));

    int entry;
    if (!free_slots.empty()) {
      entry = free_slots.back();
      free_slots.pop_back();
    } else {
      entry = static_cast<int>(active.size());
      active.emplace_back();
    }
    auto& slot_entry = active[static_cast<std::size_t>(entry)];
    slot_entry.route = std::move(*route);
    slot_entry.arrival_slot = slot;
    slot_entry.request_id = static_cast<int>(request);
    active_codes += slot_entry.route.codes;
    queue.push(slot + service, EventClass::Departure, entry);

    ++result.admitted;
    if (measured) {
      ++result.measured_admitted;
      ++result.admitted_by[static_cast<int>(slot_entry.route.source)];
    }
    if (sink.trace)
      sink.trace->record(obs::Event::admit(
          slot, static_cast<int>(request), slot_entry.route.codes, hops,
          service, static_cast<int>(slot_entry.route.source),
          slot_entry.route.distance));
    if (sink.metrics) sink.metrics->count("traffic.admitted");
    maybe_reoptimize();
  };

  const auto process_departure = [&](int slot, int entry) {
    auto& request = active[static_cast<std::size_t>(entry)];
    provider.release(request.route);
    active_codes -= request.route.codes;
    free_slots.push_back(entry);

    const int latency = slot - request.arrival_slot;
    ++result.departures;
    if (slot >= params.warmup_slots) {
      ++result.measured_departures;
      const int bucket = std::min(latency, kLatencyBuckets);
      ++result.latency_hist[static_cast<std::size_t>(bucket)];
      ++result.latency_count;
      result.latency_total += latency;
    }
    if (sink.trace)
      sink.trace->record(
          obs::Event::depart(slot, request.request_id, latency));
    if (sink.metrics) sink.metrics->count("traffic.departures");
    maybe_reoptimize();
  };

  // Degradation-window plumbing: the scale is a pure function of the
  // event slot, and events are processed in nondecreasing slot order, so
  // the provider sees the same boundary crossings in the same places on
  // every replay.
  const bool window_active =
      params.degrade_until_slot > params.degrade_from_slot &&
      params.degrade_noise_scale != 1.0;
  double current_scale = 1.0;
  const auto sync_noise_scale = [&](int slot) {
    if (!window_active) return;
    const double scale = slot >= params.degrade_from_slot &&
                                 slot < params.degrade_until_slot
                             ? params.degrade_noise_scale
                             : 1.0;
    if (scale == current_scale) return;
    current_scale = scale;
    provider.set_noise_scale(scale);
    if (sink.metrics) {
      sink.metrics->count("traffic.noise_scale_changes");
      sink.metrics->gauge("traffic.noise_scale", scale);
    }
  };

  const auto process = [&](const PendingEvent& event) {
    result.last_slot = event.slot;
    sync_noise_scale(event.slot);
    if (event.cls == EventClass::Arrival) {
      process_arrival(event.slot);
      // The next arrival is seeded from the one being processed, so the
      // stream stays open-loop: admission decisions never shift it.
      schedule_next_arrival(event.slot);
    } else {
      process_departure(event.slot, event.payload);
    }
  };

  schedule_next_arrival(0);
  // Jump from event to event; empty slots cost nothing.
  while (!queue.empty()) process(queue.pop());

  result.measured_slots =
      std::max(0, result.last_slot - params.warmup_slots + 1);
  if (sink.metrics) {
    sink.metrics->gauge("traffic.event_queue_peak",
                        static_cast<double>(queue.peak_size()));
    sink.metrics->count("traffic.admit_greedy", result.admitted_by[0]);
    sink.metrics->count("traffic.admit_warm", result.admitted_by[1]);
    sink.metrics->count("traffic.admit_cold", result.admitted_by[2]);
  }
  return result;
}

}  // namespace surfnet::netsim
