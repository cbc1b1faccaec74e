#pragma once

// Open-loop dynamic-traffic engine: a stream of request arrivals and
// departures driving the routing layer incrementally, instead of the
// fixed batch of requests the offline scheduler routes once.
//
// Arrivals form a Poisson process; each arrival draws a source/destination
// user pair and a demand class (codes, fidelity floor, deadline), passes
// the load cap, and — when admitted — asks the RouteProvider for a route.
// Admitted requests hold their route's capacity until a scheduled
// departure releases it, after a synthetic service time (kServiceBaseSlots
// and its neighbours below).
//
// Determinism contract. Arrivals and departures are first-class events on
// the deterministic pending-event heap (netsim/event_queue.h), ordered by
// (slot, EventClass, seq); EventClass::Departure outranks
// EventClass::Arrival so resources freed at a slot are visible to
// same-slot admission decisions. Every random
// variate is drawn at an event-processing point — interarrival gaps by
// inverse transform when an arrival is processed, never per-slot
// Bernoulli draws — so empty slots are draw-free and skipped, a
// (seed, params) pair replays bitwise, and the per-trial buffering of
// core::run_in_trial_order makes multi-trial traffic runs thread-count
// invariant.
//
// The routing side of the stream is abstract: netsim knows only the
// RouteProvider interface; routing::IncrementalRouter implements it with
// greedy-only admission and exact capacity release
// (routing/incremental.h).

#include <cstdint>
#include <optional>
#include <vector>

#include "netsim/simulator.h"
#include "netsim/topology.h"
#include "obs/sink.h"
#include "util/rng.h"

namespace surfnet::netsim {

/// How an admitted request's route was found (trace "admit" source field).
/// IncrementalRouter admits greedily only; Warm and Cold named its former
/// LP assists and stay because the trace schema and the repository
/// benchmark still carry all three values.
enum class AdmitSource : std::uint8_t {
  Greedy = 0,  ///< greedy planner (no LP solve)
  Warm = 1,    ///< warm-started LP assist
  Cold = 2,    ///< cold LP solve
};

/// Why admission control rejected a request (trace "blocked" reason field).
enum class BlockReason : std::uint8_t {
  Load = 0,      ///< WorkloadParams::max_active_codes reached
  Capacity = 1,  ///< the provider found no feasible route
  Fidelity = 2,  ///< best route falls under the class fidelity floor
  Deadline = 3,  ///< estimated delivery later than the class deadline
};

/// A route granted by the provider, held until the request departs.
struct AdmittedRoute {
  std::vector<int> path;        ///< node sequence src..dst
  std::vector<int> ec_servers;  ///< EC servers, in path order
  double noise = 0.0;           ///< accumulated path noise (mu)
  int codes = 1;                ///< codes the request holds on the path
  /// Code distance the provider selected for this route from its measured
  /// noise profile (0 = the configuration default). release() must return
  /// the capacity of codes of exactly this distance.
  int distance = 0;
  AdmitSource source = AdmitSource::Greedy;
};

/// The routing layer as the traffic engine sees it. Implementations own
/// all resource bookkeeping: a successful admit() has already committed
/// the route's capacity; release() must return exactly what the matching
/// admit() took.
class RouteProvider {
 public:
  virtual ~RouteProvider() = default;
  virtual std::optional<AdmittedRoute> admit(int src, int dst, int codes) = 0;
  virtual void release(const AdmittedRoute& route) = 0;
  /// Return the residual network's headroom: an estimate, in fractional
  /// codes, of how many more codes it could still carry. Called
  /// periodically by the engine (WorkloadParams::reoptimize_every); the
  /// result feeds only the "traffic.headroom" gauge. IncrementalRouter
  /// reads it off its capacity tracker without solving anything.
  virtual double reoptimize() = 0;
  /// The engine reports a change of the network-wide noise scale (a
  /// fidelity-degradation window opening or closing): every fiber's
  /// fidelity gamma measures as gamma^scale until the next change.
  /// Providers that route on measured noise react (the adaptive-distance
  /// router re-vets feasibility and escalates code distances); the
  /// default ignores it. Routes admitted before the change keep the
  /// capacity they committed.
  virtual void set_noise_scale(double scale) { (void)scale; }
};

/// Synthetic service model: an admitted request departs after
/// kServiceBaseSlots + kServicePerHopSlots * hops + jitter slots, the
/// jitter drawn uniformly from [0, kServiceJitterSlots].
inline constexpr int kServiceBaseSlots = 4;
inline constexpr int kServicePerHopSlots = 2;
inline constexpr int kServiceJitterSlots = 8;

/// One class of user demand in the workload mix.
struct DemandClass {
  double weight = 1.0;      ///< selection weight within the mix
  int codes = 1;            ///< codes requested (capacity demand multiplier)
  double fidelity_floor = 0.0;  ///< minimum acceptable route fidelity
  int deadline_slots = 0;   ///< max acceptable delivery estimate (0 = none)
};

struct WorkloadParams {
  /// Expected arrivals per slot (> 0): Poisson arrivals, exponential
  /// interarrival gaps with mean 1/arrival_rate slots.
  double arrival_rate = 1.0;
  /// Arrivals stop once their slot would exceed this horizon; pending
  /// departures still drain.
  int horizon_slots = 10000;
  /// Arrivals stop after this many requests even before the horizon
  /// (0 = horizon only).
  long long max_requests = 0;
  /// Steady-state cutoff: events before this slot are simulated but not
  /// measured.
  int warmup_slots = 0;
  std::vector<DemandClass> classes;  ///< empty = one default class
  /// Total codes concurrently admitted (0 = unlimited). Checked before
  /// the provider is consulted; a request over the cap is blocked as
  /// BlockReason::Load.
  int max_active_codes = 0;
  /// Provider re-optimization cadence in admissions+releases (0 = never).
  int reoptimize_every = 0;
  /// Deterministic fidelity-degradation window: while a processed event's
  /// slot lies in [degrade_from_slot, degrade_until_slot) the provider
  /// sees every fiber fidelity scaled to gamma^degrade_noise_scale.
  /// Boundary crossings are reported through
  /// RouteProvider::set_noise_scale at event-processing points — a pure
  /// function of the event slot, so replays stay bitwise identical across
  /// thread counts. degrade_until_slot <= degrade_from_slot (the default)
  /// disables the window.
  int degrade_from_slot = 0;
  int degrade_until_slot = 0;
  double degrade_noise_scale = 1.0;
  /// Observability handle (trace: arrival/admit/blocked/depart events;
  /// metrics: "traffic.*" counters). Null = no instrumentation.
  obs::Sink sink{};
};

/// Steady-state traffic metrics. The totals count every event; the
/// measured_* tallies and the latency histogram only cover events at or
/// after warmup_slots.
struct TrafficResult {
  long long arrivals = 0;
  long long admitted = 0;
  long long blocked = 0;
  long long departures = 0;
  int last_slot = 0;       ///< slot of the last processed event
  int measured_slots = 0;  ///< post-warmup slots covered by the run

  long long measured_arrivals = 0;
  long long measured_admitted = 0;
  long long measured_blocked = 0;
  long long measured_departures = 0;
  long long blocked_by[4] = {0, 0, 0, 0};    ///< post-warmup, by BlockReason
  long long admitted_by[3] = {0, 0, 0};      ///< post-warmup, by AdmitSource

  /// Post-warmup delivery-latency histogram in slots; the last bucket
  /// collects overflows.
  std::vector<long long> latency_hist;
  long long latency_count = 0;
  double latency_total = 0.0;

  double blocking_probability() const {
    return measured_arrivals > 0
               ? static_cast<double>(measured_blocked) / measured_arrivals
               : 0.0;
  }
  double mean_latency() const {
    return latency_count > 0 ? latency_total / latency_count : 0.0;
  }
  /// Latency percentile (p in [0, 1]) from the histogram; the overflow
  /// bucket reports as its lower edge.
  double latency_percentile(double p) const;
  /// Sustained post-warmup admitted-requests-per-slot rate.
  double admitted_per_slot() const {
    return measured_slots > 0
               ? static_cast<double>(measured_admitted) / measured_slots
               : 0.0;
  }
};

/// Drive one open-loop traffic stream against `provider`, jumping from
/// event to event; the same (params, seed) replays bitwise. `engine` is
/// unread (see SimEngine in netsim/simulator.h).
TrafficResult run_traffic(const Topology& topology, RouteProvider& provider,
                          const WorkloadParams& params, util::Rng& rng,
                          SimEngine engine = SimEngine::Event);

}  // namespace surfnet::netsim
