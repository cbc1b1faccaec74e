// Ablation: the SurfNet Decoder's step size r (paper Sec. IV-C: "can be
// further adjusted to optimize between the decoding speed and accuracy,
// with the default 2/3 generally achieving a good balance").
//
// For each r we report the logical error rate and the mean decode time.
// Expected shape: smaller r is more accurate but slower (more growth
// rounds); the default 2/3 sits near the knee.

#include <iostream>

#include "bench_common.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/trial_runner.h"
#include "qec/core_support.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace surfnet;

  bench::ArgParser args("ablation_step", argc, argv, {});
  const int trials = args.resolve_trials(6000, 40000);
  const int distance = 13;
  std::printf("Ablation: SurfNet Decoder step size r — distance %d, "
              "pauli 7%%, erasure 15%%, %d trials, seed %llu, "
              "%d thread(s)\n\n",
              distance, trials, static_cast<unsigned long long>(args.seed()),
              args.threads());

  const qec::SurfaceCodeLattice lattice(distance);
  const auto partition = qec::make_core_support(lattice);
  const auto profile = qec::NoiseProfile::core_support(partition, 0.07,
                                                       0.15);

  util::Table table({"step r", "logical error rate", "us/decode"});
  for (const double r : {2.0, 1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0, 0.2, 0.1}) {
    const decoder::SurfNetDecoder decoder(r);
    const auto report = decoder::run_logical_error_trials(
        lattice, profile, decoder, trials, args.options());
    // Per-decode latency from summed worker busy time; each trial decodes
    // both graphs.
    table.add_row({util::Table::fmt(r, 3),
                   util::Table::fmt(report.error_rate(), 4),
                   util::Table::fmt(report.ns_per_trial() / 2000.0, 1)});
  }
  table.print(std::cout);
  std::printf("\n(us/decode counts one graph decode; each trial decodes "
              "both graphs.)\nExpected shape: accuracy improves and decode "
              "time grows as r shrinks; r = 2/3 balances the two.\n");
  return 0;
}
