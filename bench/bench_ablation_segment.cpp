// Ablation: the opportunistic-movement segment length (paper Sec. V-B:
// "Based on simulation experiments, we fix the minimum distance for the
// movement to be two consecutive optical fibers"). This bench reproduces
// that design study: SurfNet on the sufficient/good scenario with the
// segment length swept from 1 (teleport every hop) to 4.
//
// Expected shape: segment 1 teleports at every fiber and pays the most
// operation noise (lower fidelity); very long segments wait for pairs on
// many fibers at once (higher latency); 2 balances the two — the paper's
// choice.

#include <iostream>

#include "bench_common.h"
#include "core/surfnet.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace surfnet;

  bench::ArgParser args("ablation_segment", argc, argv, {});
  const int trials = args.resolve_trials(150, 1080);
  std::printf("Ablation: opportunistic segment length — %d trials per "
              "point, seed %llu\n\n",
              trials, static_cast<unsigned long long>(args.seed()));

  util::Table table({"segment", "fidelity", "latency", "throughput"});
  for (const int segment : {1, 2, 3, 4}) {
    auto params = core::make_scenario(core::FacilityLevel::Sufficient,
                                      core::ConnectionQuality::Good);
    params.simulation.opportunistic_segment = segment;
    // Pairs must be scarce for the segment length to matter: a long
    // segment has to find pairs on all of its fibers at the same time.
    params.simulation.entanglement_rate = 0.4;
    params.simulation.swap_success = 0.85;
    const auto agg = core::run_trials(params, core::NetworkDesign::SurfNet,
                                      trials, args.options());
    table.add_row({std::to_string(segment),
                   util::Table::fmt(agg.fidelity.mean(), 3),
                   util::Table::fmt(agg.latency.mean(), 1),
                   util::Table::fmt(agg.throughput.mean(), 3)});
  }
  table.print(std::cout);
  std::printf("\nExpected shape: one-fiber segments teleport most often "
              "(most operation noise); long segments stall waiting for "
              "pairs on every fiber at once; two fibers — the paper's "
              "fixed choice — balances fidelity and latency.\n");
  return 0;
}
