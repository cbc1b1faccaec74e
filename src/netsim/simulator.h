#pragma once

// Round-based simulation of SurfNet's online execution (paper Sec. V-B).
//
// All scheduled requests run concurrently in discrete time slots and
// contend for the shared per-fiber entanglement pools:
//   * Support parts travel one fiber per slot through the plain channels,
//     losing photons (erasures) with a per-hop probability;
//   * Core parts move opportunistically through the entanglement-based
//     channels: a code jumps up to two consecutive fibers (the paper's
//     fixed minimum segment) as soon as every fiber of the segment has
//     enough prepared pairs, consuming one pair per Core qubit per fiber;
//   * at every scheduled EC server — and finally at the destination — the
//     complete surface code is assembled and *actually decoded*: noise
//     accumulated since the previous correction is sampled onto the code's
//     qubits (Core rates halved by purification), missing photons are
//     marked as erasures, and the configured decoder runs. A logical error
//     silently corrupts the communication; decoding resets the noise.
//
// Fidelity is the fraction of delivered codes with no logical error at any
// correction point; latency is the average number of slots per code.
//
// simulate_surfnet runs the event engine (netsim/event_simulator.h): it
// executes the slot model above but only visits the slots at which
// something can happen. Its test oracle, which visits every slot, is
// internal (netsim/sim_internal.h).
//
// The five network designs of the paper's evaluation (Fig. 7) select a
// Simulator implementation through make_simulator; SurfNet and Raw share
// the surface-code simulator (a Raw request simply has no Core path),
// the purification designs share the bare-qubit teleportation simulator.
//
// Observability: SimulationParams carries an obs::Sink. With a trace sink
// attached the simulator emits per-slot events (entanglement-pool levels,
// segment jumps, decode invocations with erasure/syndrome counts and
// logical-error verdicts, fiber failures and recoveries, deliveries and
// timeouts — see obs/trace.h for the schema); with a metrics registry it
// feeds "sim.*" counters and histograms. The null sink adds one branch
// per site and keeps the default path bitwise-identical.
//
// Fault injection & recovery: SimulationParams::faults is a deterministic
// FaultPlan executed by a FaultInjector (netsim/faults.h) — a fixed
// (seed, plan) pair replays bitwise on any thread count — and
// SimulationParams::recovery selects how broken or starved routes are
// repaired (netsim/recovery.h): local detours, bounded swap retries with
// exponential backoff, escalation to a full re-route, per-code timeout
// budgets. Every injected fault and recovery decision is reported through
// the sink.

#include <cstdint>
#include <memory>
#include <string_view>

#include "decoder/decoder.h"
#include "netsim/entanglement.h"
#include "netsim/faults.h"
#include "netsim/recovery.h"
#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "obs/sink.h"
#include "qec/error_model.h"
#include "util/rng.h"

namespace surfnet::netsim {

/// The five network designs compared in Fig. 7.
enum class NetworkDesign {
  SurfNet,
  Raw,
  Purification1,
  Purification2,
  Purification9,
};

std::string_view to_string(NetworkDesign design);

/// Purified pairs consumed per hop beyond the teleportation pair
/// (0 for the non-purification designs).
int purification_rounds(NetworkDesign design);

struct SimulationParams {
  int code_distance = 4;        ///< paper's 25-qubit example code
  double loss_per_hop = 0.08;   ///< plain-channel photon loss per fiber
  /// Fraction of a fiber's infidelity that manifests as Pauli noise on a
  /// transiting qubit (the rest is photon loss, modelled separately):
  /// p = 1 - exp(-noise_scale * mu).
  double noise_scale = 0.05;
  /// Residual operation infidelity per teleportation event (Bell
  /// measurement + Pauli frame correction). Entanglement purification
  /// cannot remove it; SurfNet's error correction can, and SurfNet's
  /// opportunistic segments teleport once per multi-fiber jump while
  /// purification networks teleport the bare message at every hop.
  double teleport_op_noise = 0.02;
  /// Residual noise fraction left on Core qubits by entanglement
  /// purification. The scheduler's Eq. (6) accounts a conservative 1/2;
  /// the recurrence formula rho' = r1 r2/(r1 r2 + (1-r1)(1-r2)) suppresses
  /// infidelity roughly quadratically, so the executed channel does better.
  double purification_factor = 0.25;
  double entanglement_rate = 4.0;  ///< expected new pairs per slot per fiber
  int opportunistic_segment = 2;   ///< paper: minimum movement distance
  /// Probability that one entanglement-swap/teleportation attempt succeeds;
  /// a failed segment jump wastes the consumed pairs (paper Sec. IV-B:
  /// "the process of entanglement is highly probabilistic").
  double swap_success = 1.0;
  /// Online-execution fault schedule (netsim/faults.h): scripted events
  /// plus stochastic fiber cuts, correlated multi-link failures, node
  /// outages, entanglement-rate degradation windows and decode-latency
  /// spikes. An empty plan costs one branch per slot.
  FaultPlan faults;
  /// What the control plane does when a route breaks or starves
  /// (netsim/recovery.h). The default policy reproduces the historical
  /// behavior: local reroutes, no backoff, no escalation, no per-code
  /// budget. Set `recovery.local_reroute = false` to hold qubits in
  /// error-mitigation circuits until a failed fiber returns instead of
  /// detouring around it (the retired `enable_recovery = false` knob).
  RecoveryPolicy recovery;
  int max_slots = 20000;        ///< safety cap; starved codes time out
  qec::PauliChannel channel = qec::PauliChannel::IndependentXZ;
  /// Observability handle (metrics + trace); null = no instrumentation.
  obs::Sink sink{};
};

/// Why one simulated code ended the way it did.
enum class CodeOutcome {
  Succeeded,     ///< delivered, no logical error at any correction point
  LogicalError,  ///< delivered, but silently corrupted along the way
  TimedOut,      ///< still in flight when the simulation hit max_slots
};

std::string_view to_string(CodeOutcome outcome);

/// Per-code record of one simulated communication, appended as codes
/// finish (delivery or, at the end of the run, timeout).
struct CodeRecord {
  int request = -1;    ///< ScheduledRequest::request_index
  int slots = 0;       ///< in-flight slots (censored at max_slots on timeout)
  int corrections = 0; ///< decode invocations (EC servers + final readout)
  CodeOutcome outcome = CodeOutcome::TimedOut;
};

struct SimulationResult {
  int codes_scheduled = 0;
  int codes_delivered = 0;  ///< completed before max_slots
  int codes_succeeded = 0;  ///< delivered with no logical error
  double total_latency = 0.0;
  /// One record per launched code (delivered or timed out); codes never
  /// launched before max_slots have no record. Totals above are exactly
  /// the tallies of these records plus the never-launched remainder.
  std::vector<CodeRecord> codes;

  /// Paper Sec. VI-C: success rate of executed communications.
  double fidelity() const {
    return codes_delivered > 0
               ? static_cast<double>(codes_succeeded) / codes_delivered
               : 0.0;
  }
  double avg_latency() const {
    return codes_delivered > 0 ? total_latency / codes_delivered : 0.0;
  }
};

/// Simulate a SurfNet (or Raw, when a request's core_path is empty)
/// schedule on the event engine. Raw requests send every qubit through the
/// plain channel and consume no entanglement.
SimulationResult simulate_surfnet(const Topology& topology,
                                  const Schedule& schedule,
                                  const SimulationParams& params,
                                  const decoder::Decoder& decoder,
                                  util::Rng& rng);

/// Simulate a purification-based network (paper's "Purification N=1,2,9"
/// benchmarks): each message is a bare qubit teleported hop by hop, each
/// hop consuming 1 + extra_pairs entangled pairs; the message survives with
/// the product of the purified link fidelities.
SimulationResult simulate_purification(const Topology& topology,
                                       const Schedule& schedule,
                                       int extra_pairs,
                                       const SimulationParams& params,
                                       util::Rng& rng);

/// Unified execution interface over the two simulation models. A Simulator
/// is stateless across runs; the same instance may execute many schedules.
class Simulator {
 public:
  virtual ~Simulator() = default;
  virtual SimulationResult run(const Topology& topology,
                               const Schedule& schedule,
                               const SimulationParams& params,
                               util::Rng& rng) const = 0;
  virtual std::string_view name() const = 0;
};

/// Surface-code transfer (SurfNet and Raw designs). The decoder is
/// borrowed and must outlive the simulator.
class SurfNetSimulator final : public Simulator {
 public:
  explicit SurfNetSimulator(const decoder::Decoder& decoder)
      : decoder_(&decoder) {}
  SimulationResult run(const Topology& topology, const Schedule& schedule,
                       const SimulationParams& params,
                       util::Rng& rng) const override {
    return simulate_surfnet(topology, schedule, params, *decoder_, rng);
  }
  std::string_view name() const override { return "surfnet"; }

 private:
  const decoder::Decoder* decoder_;
};

/// Hop-by-hop teleportation of bare qubits over purified pairs
/// (Purification N=1,2,9 designs).
class PurificationSimulator final : public Simulator {
 public:
  explicit PurificationSimulator(int extra_pairs)
      : extra_pairs_(extra_pairs) {}
  SimulationResult run(const Topology& topology, const Schedule& schedule,
                       const SimulationParams& params,
                       util::Rng& rng) const override {
    return simulate_purification(topology, schedule, extra_pairs_, params,
                                 rng);
  }
  std::string_view name() const override { return "purification"; }
  int extra_pairs() const { return extra_pairs_; }

 private:
  int extra_pairs_;
};

/// The one simulation engine. A single-value leftover: perfbench/ still
/// passes SimEngine::Event to make_simulator and run_traffic, so both keep
/// a defaulted engine parameter that nothing reads. Remove the enum and
/// those parameters together with the perfbench call sites.
enum class SimEngine : std::uint8_t { Event };

/// The simulator a network design executes on. The decoder is borrowed by
/// the surface-code designs (SurfNet, Raw) and ignored by the rest.
std::unique_ptr<Simulator> make_simulator(NetworkDesign design,
                                          const decoder::Decoder& decoder,
                                          SimEngine engine = SimEngine::Event);

}  // namespace surfnet::netsim
