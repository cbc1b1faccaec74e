// Reproduces paper Fig. 7: averaged communication fidelity of the five
// network designs — SurfNet, Raw, and Purification N = 1, 2, 9 — in four
// scenarios (abundant/insufficient facilities x good/poor fibers), with
// the routing protocols configured to comparable throughput.
//
// Expected shape: SurfNet highest in every scenario; purification designs
// ordered N=1 < N=2 < N=9; SurfNet's advantage largest with abundant
// facilities and narrowest with limited facilities and poor connections.

#include <iostream>

#include "bench_common.h"
#include "core/surfnet.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace surfnet;
  using core::ConnectionQuality;
  using core::FacilityLevel;
  using core::NetworkDesign;

  bench::ArgParser args("fig7", argc, argv, {.csv = true});
  const int trials = args.resolve_trials(120, 1080);
  std::printf("Fig. 7: averaged communication fidelity of five designs — "
              "%d trials per cell, seed %llu\n\n",
              trials, static_cast<unsigned long long>(args.seed()));

  const NetworkDesign designs[] = {
      NetworkDesign::SurfNet, NetworkDesign::Raw,
      NetworkDesign::Purification1, NetworkDesign::Purification2,
      NetworkDesign::Purification9};

  util::Table table({"scenario", "SurfNet", "Raw", "Purif N=1", "Purif N=2",
                     "Purif N=9"});
  for (const auto level :
       {FacilityLevel::Abundant, FacilityLevel::Insufficient}) {
    for (const auto quality :
         {ConnectionQuality::Good, ConnectionQuality::Poor}) {
      const auto params = core::make_scenario(level, quality);
      std::vector<std::string> row{std::string(core::to_string(level)) +
                                   "/" +
                                   std::string(core::to_string(quality))};
      for (const auto design : designs) {
        const auto agg =
            core::run_trials(params, design, trials, args.options());
        row.push_back(util::Table::fmt(agg.fidelity.mean(), 3));
      }
      table.add_row(std::move(row));
    }
  }
  if (args.csv()) table.print_csv(std::cout);
  else table.print(std::cout);

  std::printf("\nPaper shape check: SurfNet achieves the highest fidelity "
              "in all four scenarios; Purification improves with N; the "
              "SurfNet margin shrinks with limited facilities and poor "
              "connections.\n");
  return 0;
}
