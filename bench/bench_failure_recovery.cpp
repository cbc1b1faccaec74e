// Extension study: online execution under fiber failures (paper Sec. V-B:
// "if abundant resources are available in the local neighborhood, a node
// can locally replace a failed route with a recovery path leading to the
// next designated node"). SurfNet on the abundant/good scenario with
// increasing per-slot fiber failure rates, with and without local
// recovery.
//
// Expected shape: latency grows with the failure rate; enabling recovery
// paths recovers most of the lost latency at equal fidelity.

#include <iostream>

#include "bench_common.h"
#include "core/surfnet.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace surfnet;

  bench::ArgParser args("failure_recovery", argc, argv, {});
  const int trials = args.resolve_trials(150, 1080);
  std::printf("Failure injection: fiber crashes and local recovery paths — "
              "%d trials per point, seed %llu\n\n",
              trials, static_cast<unsigned long long>(args.seed()));

  util::Table table({"failure rate", "recovery", "fidelity", "latency",
                     "delivered"});
  for (const double rate : {0.0, 0.01, 0.03, 0.06}) {
    for (const bool recovery : {true, false}) {
      if (rate == 0.0 && !recovery) continue;  // identical to the on case
      auto params = core::make_scenario(core::FacilityLevel::Abundant,
                                        core::ConnectionQuality::Good);
      params.simulation.faults = netsim::FaultPlan::fiber_noise(rate, 30);
      params.simulation.recovery.local_reroute = recovery;

      const auto agg = core::run_trials(params, core::NetworkDesign::SurfNet,
                                        trials, args.options());
      table.add_row({util::Table::pct(rate, 1), recovery ? "on" : "off",
                     util::Table::fmt(agg.fidelity.mean(), 3),
                     util::Table::fmt(agg.latency.mean(), 1),
                     util::Table::fmt(agg.delivered.mean(), 3)});
    }
  }
  table.print(std::cout);
  std::printf("\nExpected shape: failures inflate latency; local recovery "
              "paths claw most of it back and keep delivery near 1.\n");
  return 0;
}
