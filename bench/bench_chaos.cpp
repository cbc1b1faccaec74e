// Chaos campaigns: online execution under the deterministic fault-injection
// subsystem (netsim/faults.h) with the recovery policy (netsim/recovery.h)
// off versus fully on. Three fault regimes beyond the paper's Sec. V-B
// independent fiber crashes:
//
//   correlated_cuts  a conduit cut takes out a bundle of fibers sharing an
//                    endpoint (correlated multi-link failures);
//   degradation      entanglement sources degrade to a fraction of their
//                    pair rate for long windows (pool starvation);
//   node_outages     switches/servers drop out and heal.
//
// Expected shape: with recovery disabled, broken routes hold in place until
// the fault heals, and a code still held at the 2000-slot cap times out. The
// aggressive policy (local detours plus a 1500-slot per-code budget)
// delivers strictly more codes intact under correlated cuts, where a
// single conduit event severs the planned route outright, and cuts latency
// under node outages, which heal on their own. Source degradation starves
// pools without breaking routes, so there the two postures coincide.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/surfnet.h"
#include "netsim/faults.h"
#include "netsim/recovery.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

struct Campaign {
  const char* name;
  surfnet::netsim::StochasticFaults faults;
};

std::vector<Campaign> campaigns() {
  using surfnet::netsim::StochasticFaults;
  StochasticFaults cuts;
  cuts.correlated_cut_rate = 0.10;
  cuts.correlated_group_size = 4;
  cuts.correlated_cut_duration = 250;

  StochasticFaults starve;
  starve.degradation_rate = 0.10;
  starve.degradation_factor = 0.05;
  starve.degradation_duration = 150;

  StochasticFaults outages;
  outages.node_outage_rate = 0.02;
  outages.node_outage_duration = 120;

  return {{"correlated_cuts", cuts},
          {"degradation", starve},
          {"node_outages", outages}};
}

struct ChaosRow {
  std::string campaign;
  bool recovery = false;
  /// succeeded / delivered. Survivorship-biased across policies: a policy
  /// that times starved codes out censors exactly its hardest cases.
  double fidelity = 0.0;
  double delivered = 0.0;  ///< delivered / scheduled
  /// succeeded / scheduled — the headline "delivered-code fidelity": the
  /// fraction of scheduled codes that arrived with no logical error. Free
  /// of the censoring bias above, so policies compare apples to apples.
  double delivered_code_fidelity = 0.0;
  double latency = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace surfnet;

  bench::ArgParser args("chaos", argc, argv, {.json = true});
  const int trials = args.resolve_trials(60, 500);
  if (!args.json())
    std::printf("Chaos campaigns: correlated cuts, source degradation, node "
                "outages — recovery off vs aggressive, %d trials per cell, "
                "seed %llu\n\n",
                trials, static_cast<unsigned long long>(args.seed()));

  std::vector<ChaosRow> rows;
  for (const auto& campaign : campaigns()) {
    for (const bool recovery : {false, true}) {
      auto params = core::make_scenario(core::FacilityLevel::Sufficient,
                                        core::ConnectionQuality::Good);
      params.simulation.faults.stochastic = campaign.faults;
      // Bound the run so a code holding against a long fault window times
      // out instead of waiting it out: delivery becomes part of the signal.
      params.simulation.max_slots = 2000;
      params.simulation.recovery = recovery
                                       ? netsim::RecoveryPolicy::aggressive()
                                       : netsim::RecoveryPolicy::disabled();

      std::vector<core::TrialMetrics> results(
          static_cast<std::size_t>(trials));
      core::run_in_trial_order(
          trials, args.options(),
          [&](std::size_t t, std::uint64_t seed, const obs::Sink& sink) {
            results[t] = core::run_trial(params, core::NetworkDesign::SurfNet,
                                         seed, sink);
          });
      long long scheduled = 0, delivered = 0, succeeded = 0;
      util::RunningStat latency;
      for (const auto& metrics : results) {
        scheduled += metrics.codes_scheduled;
        delivered += metrics.codes_delivered;
        succeeded += static_cast<long long>(
            metrics.fidelity * metrics.codes_delivered + 0.5);
        if (metrics.codes_delivered > 0) latency.add(metrics.latency);
      }

      ChaosRow row;
      row.campaign = campaign.name;
      row.recovery = recovery;
      row.fidelity = delivered > 0
                         ? static_cast<double>(succeeded) / delivered
                         : 0.0;
      row.delivered = scheduled > 0
                          ? static_cast<double>(delivered) / scheduled
                          : 0.0;
      row.delivered_code_fidelity =
          scheduled > 0 ? static_cast<double>(succeeded) / scheduled : 0.0;
      row.latency = latency.mean();
      rows.push_back(row);
    }
  }

  args.finish_observability();
  if (args.json()) {
    std::vector<std::string> records;
    records.reserve(rows.size());
    for (const auto& r : rows) {
      char record[256];
      std::snprintf(record, sizeof(record),
                    "{\"campaign\": \"%s\", \"recovery\": \"%s\", "
                    "\"fidelity\": %.4f, \"delivered_ratio\": %.4f, "
                    "\"delivered_code_fidelity\": %.4f, "
                    "\"latency\": %.2f, \"trials\": %d}",
                    r.campaign.c_str(),
                    r.recovery ? "aggressive" : "disabled", r.fidelity,
                    r.delivered, r.delivered_code_fidelity, r.latency,
                    trials);
      records.emplace_back(record);
    }
    args.print_json_envelope(records);
    return 0;
  }

  util::Table table({"campaign", "recovery", "fidelity", "delivered",
                     "delivered-code fid", "latency"});
  for (const auto& r : rows)
    table.add_row({r.campaign, r.recovery ? "aggressive" : "disabled",
                   util::Table::fmt(r.fidelity, 3),
                   util::Table::fmt(r.delivered, 3),
                   util::Table::fmt(r.delivered_code_fidelity, 3),
                   util::Table::fmt(r.latency, 1)});
  table.print(std::cout);
  std::printf("\nExpected shape: recovery keeps delivery and the "
              "delivered-code fidelity (intact arrivals over scheduled "
              "codes) strictly higher under correlated cuts, and cuts "
              "recovery latency everywhere.\n");
  return 0;
}
