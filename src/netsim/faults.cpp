#include "netsim/faults.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace surfnet::netsim {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::FiberCut: return "fiber_cut";
    case FaultKind::NodeOutage: return "node_outage";
    case FaultKind::EntanglementDegradation: return "degradation";
  }
  return "?";
}

FaultPlan FaultPlan::fiber_noise(double rate, int duration) {
  FaultPlan plan;
  plan.stochastic.fiber_cut_rate = rate;
  plan.stochastic.fiber_cut_duration = duration;
  return plan;
}

namespace {

/// First slot past a window of `duration` slots opened at `slot`. An end
/// past INT_MAX saturates there: the window holds for the rest of the run.
int window_end(int slot, int duration) {
  return static_cast<int>(
      std::min<long long>(static_cast<long long>(slot) + duration,
                          std::numeric_limits<int>::max()));
}

[[noreturn]] void bad_plan(const std::string& what) {
  throw std::invalid_argument("FaultPlan: " + what);
}

void validate_spec(const StochasticFaults& s) {
  for (const double rate :
       {s.fiber_cut_rate, s.correlated_cut_rate, s.node_outage_rate,
        s.degradation_rate})
    if (rate < 0.0 || rate > 1.0) bad_plan("stochastic rate outside [0, 1]");
  for (const int d :
       {s.fiber_cut_duration, s.correlated_cut_duration,
        s.node_outage_duration, s.degradation_duration})
    if (d <= 0) bad_plan("stochastic fault duration must be positive");
  if (s.correlated_group_size < 1)
    bad_plan("correlated group size must be >= 1");
  if (s.degradation_factor < 0.0 || s.degradation_factor > 1.0)
    bad_plan("degradation factor outside [0, 1]");
}

}  // namespace

FaultInjector::FaultInjector(const Topology& topology, const FaultPlan& plan)
    : topology_(&topology),
      plan_(plan),
      fiber_down_until_(static_cast<std::size_t>(topology.num_fibers()), 0),
      node_down_until_(static_cast<std::size_t>(topology.num_nodes()), 0),
      degrade_until_(static_cast<std::size_t>(topology.num_fibers()), 0),
      degrade_factor_(static_cast<std::size_t>(topology.num_fibers()), 1.0) {
  validate_spec(plan_.stochastic);
  for (const auto& event : plan_.scripted) {
    if (event.slot < 0) bad_plan("scripted event at negative slot");
    if (event.duration <= 0) bad_plan("scripted event duration must be >= 1");
    switch (event.kind) {
      case FaultKind::FiberCut:
      case FaultKind::EntanglementDegradation:
        if (event.target < 0 || event.target >= topology.num_fibers())
          bad_plan("scripted event targets fiber " +
                   std::to_string(event.target) + " outside [0, " +
                   std::to_string(topology.num_fibers()) + ")");
        break;
      case FaultKind::NodeOutage:
        if (event.target < 0 || event.target >= topology.num_nodes())
          bad_plan("scripted event targets node " +
                   std::to_string(event.target) + " outside [0, " +
                   std::to_string(topology.num_nodes()) + ")");
        break;
    }
    if (event.kind == FaultKind::EntanglementDegradation &&
        (event.magnitude < 0.0 || event.magnitude > 1.0))
      bad_plan("degradation magnitude outside [0, 1]");
  }
  std::stable_sort(
      plan_.scripted.begin(), plan_.scripted.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.slot < b.slot; });
  inert_ = plan_.empty();
}

void FaultInjector::cut_fiber(int fiber, int slot, int duration,
                              const obs::Sink& sink) {
  auto& until = fiber_down_until_[static_cast<std::size_t>(fiber)];
  until = std::max(until, window_end(slot, duration));
  if (sink.metrics) sink.metrics->count("sim.fiber_failures");
  if (sink.trace)
    sink.trace->record(obs::Event::fiber_down(slot, fiber, until));
}

bool FaultInjector::degradations_possible() const {
  if (plan_.stochastic.degradation_rate > 0.0) return true;
  for (const auto& event : plan_.scripted)
    if (event.kind == FaultKind::EntanglementDegradation) return true;
  return false;
}

void FaultInjector::apply(const FaultEvent& event, int slot,
                          const obs::Sink& sink) {
  switch (event.kind) {
    case FaultKind::FiberCut:
      cut_fiber(event.target, slot, event.duration, sink);
      break;
    case FaultKind::NodeOutage: {
      auto& until = node_down_until_[static_cast<std::size_t>(event.target)];
      until = std::max(until, window_end(slot, event.duration));
      if (sink.metrics) sink.metrics->count("sim.node_outages");
      if (sink.trace)
        sink.trace->record(obs::Event::node_down(slot, event.target, until));
      break;
    }
    case FaultKind::EntanglementDegradation: {
      const auto e = static_cast<std::size_t>(event.target);
      degrade_until_[e] =
          std::max(degrade_until_[e], window_end(slot, event.duration));
      degrade_factor_[e] = event.magnitude;
      if (sink.metrics) sink.metrics->count("sim.degradations");
      if (sink.trace)
        sink.trace->record(obs::Event::degraded(slot, event.target,
                                                degrade_until_[e],
                                                event.magnitude));
      break;
    }
  }
}

void FaultInjector::begin_slot(int slot, util::Rng& rng,
                               const obs::Sink& sink) {
  if (inert_) return;

  // Scripted events first — they consume no random variates.
  while (next_scripted_ < plan_.scripted.size() &&
         plan_.scripted[next_scripted_].slot <= slot)
    apply(plan_.scripted[next_scripted_++], slot, sink);

  const StochasticFaults& s = plan_.stochastic;

  // Independent per-fiber cuts: one Bernoulli draw per *live* fiber.
  if (s.fiber_cut_rate > 0.0) {
    for (int e = 0; e < topology_->num_fibers(); ++e)
      if (!fiber_down(e, slot) && rng.bernoulli(s.fiber_cut_rate))
        cut_fiber(e, slot, s.fiber_cut_duration, sink);
  }

  // Correlated multi-link failure: one seed fiber plus neighbors sharing
  // an endpoint, in deterministic incidence order.
  if (s.correlated_cut_rate > 0.0 && rng.bernoulli(s.correlated_cut_rate)) {
    const int seed = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(topology_->num_fibers())));
    cut_fiber(seed, slot, s.correlated_cut_duration, sink);
    int cut = 1;
    const auto& f = topology_->fiber(seed);
    for (const int endpoint : {f.a, f.b}) {
      for (const int e : topology_->incident(endpoint)) {
        if (cut >= s.correlated_group_size) break;
        if (e == seed) continue;
        cut_fiber(e, slot, s.correlated_cut_duration, sink);
        ++cut;
      }
      if (cut >= s.correlated_group_size) break;
    }
  }

  // Switch/server outages (users never fail).
  if (s.node_outage_rate > 0.0) {
    for (int v = 0; v < topology_->num_nodes(); ++v) {
      if (topology_->is_user(v) || node_down(v, slot)) continue;
      if (!rng.bernoulli(s.node_outage_rate)) continue;
      auto& until = node_down_until_[static_cast<std::size_t>(v)];
      until = window_end(slot, s.node_outage_duration);
      if (sink.metrics) sink.metrics->count("sim.node_outages");
      if (sink.trace)
        sink.trace->record(obs::Event::node_down(slot, v, until));
    }
  }

  // Entanglement-source degradation on one random fiber.
  if (s.degradation_rate > 0.0 && rng.bernoulli(s.degradation_rate)) {
    const auto e = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(topology_->num_fibers())));
    degrade_until_[e] = std::max(degrade_until_[e],
                                 window_end(slot, s.degradation_duration));
    degrade_factor_[e] = s.degradation_factor;
    if (sink.metrics) sink.metrics->count("sim.degradations");
    if (sink.trace)
      sink.trace->record(obs::Event::degraded(
          slot, static_cast<int>(e), degrade_until_[e],
          s.degradation_factor));
  }
}

}  // namespace surfnet::netsim
