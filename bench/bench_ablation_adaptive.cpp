// Extension study: adaptive code sizes based on quality of service (paper
// Sec. VI-C: "incorporating adaptive code sizes based on quality of
// service" is named as the improvement for limited-facility/poor-
// connection scenarios). Two tiers:
//
//  1. Batch-greedy study (text mode): the greedy scheduler picks distance
//     3/4/5 per route by residual noise on random topologies; compared
//     against the fixed distance-4 code.
//
//  2. Dynamic-traffic study (text + --json): an open-loop traffic stream
//     on the ring topology drives an IncrementalRouter, with a
//     deterministic fidelity-degradation window in the "degrading"
//     scenario. The adaptive policy (per-request distance from measured
//     noise) runs against fixed d in {3, 4, 5}. Delivered quality is
//     grounded in the decoder layer: each admitted request's noise maps
//     to a per-(distance, noise-bucket) logical error rate measured by
//     Monte Carlo with the SurfNet decoder, and the headline metric is
//       delivered_good_per_slot = sum(codes * (1 - p_logical)) / horizon,
//     i.e. logically-intact delivered codes per slot. Every quantity in
//     the --json records is a deterministic function of (params, seed) —
//     no wall-clock metrics — so CI gates them against a committed
//     baseline (bench/baselines/ablation_adaptive_release.json) with a
//     tight threshold via scripts/bench_compare.py --key/--metric.
//
// Expected shape: adaptive beats every fixed distance on delivered good
// codes per slot in both scenarios — fixed d=3 goes dark inside the
// degradation window (no noise-feasible route), larger fixed codes pay
// their capacity footprint outside it. The bench exits nonzero if
// adaptive fails to win on at least one scenario, so the claim is
// enforced in-process, not just plotted.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/surfnet.h"
#include "decoder/code_trial.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/workload.h"
#include "qec/error_model.h"
#include "qec/lattice.h"
#include "routing/incremental.h"
#include "util/table.h"

namespace {

using namespace surfnet;

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (same shape as the netsim golden-trace fixtures).
netsim::Topology ring_topology(double fidelity) {
  std::vector<netsim::Node> nodes(6);
  nodes[1] = {netsim::NodeRole::Switch, 1000};
  nodes[2] = {netsim::NodeRole::Server, 1000};
  nodes[3] = {netsim::NodeRole::Switch, 1000};
  nodes[5] = {netsim::NodeRole::Switch, 1000};
  std::vector<netsim::Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                                    {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                                    {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return netsim::Topology(std::move(nodes), std::move(fibers));
}

/// RoutingParams pinned to one fixed code distance: the code-size fields
/// and the Eq. (6) thresholds take the same values the adaptive planner
/// would use for that distance, but adaptation itself stays off.
routing::RoutingParams params_for_distance(int distance) {
  routing::RoutingParams params;
  const double scale = (distance - 2.0) / 2.0;
  params.core_qubits = routing::RoutingParams::core_qubits_for(distance);
  params.support_qubits =
      routing::RoutingParams::total_qubits_for(distance) - params.core_qubits;
  params.core_noise_threshold *= scale;
  params.total_noise_threshold *= scale;
  params.adaptive_code_distance = false;
  return params;
}

/// RouteProvider shim that records every admit's (noise, distance, codes)
/// for the delivered-quality accounting. Fixed-distance policies report
/// distance 0 (configuration default) from the router, so the recorder
/// substitutes the policy's distance.
class RecordingProvider final : public netsim::RouteProvider {
 public:
  struct Admit {
    double noise = 0.0;
    int distance = 0;
    int codes = 0;
  };

  RecordingProvider(netsim::RouteProvider& inner, int fallback_distance)
      : inner_(&inner), fallback_distance_(fallback_distance) {}

  std::optional<netsim::AdmittedRoute> admit(int src, int dst,
                                             int codes) override {
    auto route = inner_->admit(src, dst, codes);
    if (route)
      admits_.push_back({route->noise,
                         route->distance > 0 ? route->distance
                                             : fallback_distance_,
                         route->codes});
    return route;
  }
  void release(const netsim::AdmittedRoute& route) override {
    inner_->release(route);
  }
  double reoptimize() override { return inner_->reoptimize(); }
  void set_noise_scale(double scale) override {
    inner_->set_noise_scale(scale);
  }

  const std::vector<Admit>& admits() const { return admits_; }

 private:
  netsim::RouteProvider* inner_;
  int fallback_distance_;
  std::vector<Admit> admits_;
};

/// Memoized per-(distance, noise-bucket) logical error rate: a bucket's
/// center noise mu maps to the per-qubit Pauli rate p = (1 - e^-mu) / 2
/// (the depolarizing-accumulation calibration used across the sim layer)
/// and is measured by Monte Carlo with the SurfNet decoder. Trial count
/// and seed are fixed — independent of --trials — so the table, and with
/// it every gated record, is bitwise stable across bench invocations.
class LogicalErrorTable {
 public:
  static constexpr int kBuckets = 10;
  static constexpr double kBucketWidth = 0.05;

  static int bucket_of(double noise) {
    const int b = static_cast<int>(noise / kBucketWidth);
    return std::min(std::max(b, 0), kBuckets - 1);
  }

  double rate(int distance, int bucket) {
    const auto key = std::make_pair(distance, bucket);
    const auto it = table_.find(key);
    if (it != table_.end()) return it->second;
    const qec::SurfaceCodeLattice lattice(distance);
    const double mu = (bucket + 0.5) * kBucketWidth;
    const double p = 0.5 * (1.0 - std::exp(-mu));
    const auto profile =
        qec::NoiseProfile::uniform(lattice.num_data_qubits(), p, 0.0);
    const decoder::SurfNetDecoder dec;
    util::Rng rng(0x9B5EEDULL + 131 * distance + bucket);
    const double rate = decoder::logical_error_rate(
        lattice, profile, dec, 400, rng);
    table_.emplace(key, rate);
    return rate;
  }

 private:
  std::map<std::pair<int, int>, double> table_;
};

struct TrafficRow {
  std::string scenario;
  std::string policy;
  long long admitted = 0;
  long long blocked = 0;
  double admitted_per_slot = 0.0;
  double blocking_probability = 0.0;
  double mean_distance = 0.0;
  double delivered_fidelity = 0.0;     ///< mean 1 - p_logical over codes
  double delivered_good_per_slot = 0.0;
};

struct Scenario {
  const char* name;
  bool degrade;
};

struct Policy {
  const char* name;
  int fixed_distance;  ///< 0 = adaptive
};

TrafficRow run_traffic_cell(const Scenario& scenario, const Policy& policy,
                            std::uint64_t seed, LogicalErrorTable& table) {
  const auto topology = ring_topology(0.97);

  routing::RoutingParams routing_params =
      policy.fixed_distance == 0 ? routing::RoutingParams{}
                                 : params_for_distance(policy.fixed_distance);
  routing_params.adaptive_code_distance = policy.fixed_distance == 0;

  netsim::WorkloadParams workload;
  workload.arrival_rate = 2.0;
  workload.horizon_slots = 300;
  workload.warmup_slots = 20;
  if (scenario.degrade) {
    workload.degrade_from_slot = 80;
    workload.degrade_until_slot = 160;
    workload.degrade_noise_scale = 2.0;
  }

  routing::IncrementalRouter router(topology, routing_params);
  RecordingProvider provider(router, policy.fixed_distance);
  util::Rng rng(seed);
  const auto result = netsim::run_traffic(topology, provider, workload, rng);

  TrafficRow row;
  row.scenario = scenario.name;
  row.policy = policy.name;
  row.admitted = result.admitted;
  row.blocked = result.blocked;
  row.admitted_per_slot = result.admitted_per_slot();
  row.blocking_probability = result.blocking_probability();

  double good = 0.0;
  double codes = 0.0;
  double distance_sum = 0.0;
  for (const auto& admit : provider.admits()) {
    const double p_logical =
        table.rate(admit.distance, LogicalErrorTable::bucket_of(admit.noise));
    good += admit.codes * (1.0 - p_logical);
    codes += admit.codes;
    distance_sum += admit.codes * admit.distance;
  }
  row.mean_distance = codes > 0 ? distance_sum / codes : 0.0;
  row.delivered_fidelity = codes > 0 ? good / codes : 0.0;
  row.delivered_good_per_slot = good / workload.horizon_slots;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args("ablation_adaptive", argc, argv, {.json = true});
  const int trials = args.resolve_trials(150, 1080);

  // Tier 1: batch-greedy study on random topologies (text mode only — its
  // throughput/fidelity means are Monte-Carlo aggregates, not gate-worthy
  // point metrics).
  if (!args.json()) {
    std::printf("Extension: adaptive code sizes (QoS) vs fixed distance 4 — "
                "%d trials per point, seed %llu\n\n",
                trials, static_cast<unsigned long long>(args.seed()));
    util::Table table({"scenario", "codes", "throughput", "fidelity"});
    for (const auto quality :
         {core::ConnectionQuality::Good, core::ConnectionQuality::Poor}) {
      for (const bool adaptive : {false, true}) {
        auto params =
            core::make_scenario(core::FacilityLevel::Insufficient, quality);
        params.routing.adaptive_code_distance = adaptive;
        const auto agg = bench::run_greedy_trials(params, trials,
                                                  args.options());
        table.add_row({std::string(core::to_string(quality)),
                       adaptive ? "adaptive 3/4/5" : "fixed d=4",
                       util::Table::fmt(agg.throughput.mean(), 3),
                       util::Table::fmt(agg.fidelity.mean(), 3)});
      }
    }
    table.print(std::cout);
    std::printf("\n");
  }

  // Tier 2: dynamic traffic on the ring, adaptive vs every fixed distance.
  const Scenario scenarios[] = {{"stable", false}, {"degrading", true}};
  const Policy policies[] = {
      {"adaptive", 0}, {"fixed_d3", 3}, {"fixed_d4", 4}, {"fixed_d5", 5}};

  LogicalErrorTable table;
  std::vector<TrafficRow> rows;
  for (const auto& scenario : scenarios)
    for (const auto& policy : policies)
      rows.push_back(run_traffic_cell(scenario, policy, args.seed(), table));

  // In-process acceptance: adaptive must beat every fixed distance on
  // delivered good codes per slot on at least one scenario.
  int winning_scenarios = 0;
  for (const auto& scenario : scenarios) {
    double adaptive_good = 0.0;
    double best_fixed = 0.0;
    for (const auto& row : rows) {
      if (row.scenario != scenario.name) continue;
      if (row.policy == "adaptive")
        adaptive_good = row.delivered_good_per_slot;
      else
        best_fixed = std::max(best_fixed, row.delivered_good_per_slot);
    }
    if (adaptive_good > best_fixed) ++winning_scenarios;
  }
  if (winning_scenarios == 0) {
    std::fprintf(stderr,
                 "FAIL: adaptive code selection does not beat every fixed "
                 "distance on delivered_good_per_slot in any scenario\n");
    return 1;
  }

  args.finish_observability();
  if (args.json()) {
    std::vector<std::string> records;
    records.reserve(rows.size());
    for (const auto& r : rows) {
      char record[320];
      std::snprintf(
          record, sizeof(record),
          "{\"scenario\": \"%s\", \"policy\": \"%s\", \"admitted\": %lld, "
          "\"blocked\": %lld, \"admitted_per_slot\": %.4f, "
          "\"blocking_probability\": %.4f, \"mean_distance\": %.3f, "
          "\"delivered_fidelity\": %.4f, \"delivered_good_per_slot\": %.4f}",
          r.scenario.c_str(), r.policy.c_str(), r.admitted, r.blocked,
          r.admitted_per_slot, r.blocking_probability, r.mean_distance,
          r.delivered_fidelity, r.delivered_good_per_slot);
      records.emplace_back(record);
    }
    args.print_json_envelope(records);
    return 0;
  }

  std::printf("Dynamic traffic (ring, rate 2.0, horizon 300, degradation "
              "window [80, 160) at scale 2.0) — seed %llu\n\n",
              static_cast<unsigned long long>(args.seed()));
  util::Table traffic({"scenario", "policy", "admit/slot", "block-p",
                       "mean d", "fidelity", "good/slot"});
  for (const auto& r : rows)
    traffic.add_row({r.scenario, r.policy,
                     util::Table::fmt(r.admitted_per_slot, 3),
                     util::Table::fmt(r.blocking_probability, 3),
                     util::Table::fmt(r.mean_distance, 2),
                     util::Table::fmt(r.delivered_fidelity, 3),
                     util::Table::fmt(r.delivered_good_per_slot, 3)});
  traffic.print(std::cout);
  std::printf("\nExpected shape: adaptive wins delivered good codes per "
              "slot — fixed d=3 admits nothing inside the degradation "
              "window, larger fixed codes pay their capacity footprint "
              "outside it (adaptive won on %d of 2 scenarios).\n",
              winning_scenarios);
  return 0;
}
