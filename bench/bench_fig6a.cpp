// Reproduces paper Fig. 6(a): Raw vs SurfNet in the three facility
// scenarios (abundant / sufficient / insufficient), over the paper's three
// metrics. The (a.1) tables report throughput and latency (similar for
// both designs); the (a.2) plots report communication fidelity (SurfNet
// clearly higher). Both fiber-quality settings are shown.
//
// Expected shape: throughput and latency comparable between the two
// designs in each scenario, fidelity consistently higher for SurfNet.
//
// --json records: {"scenario", "fibers", "design", "throughput",
// "latency", "fidelity", "fid_ci95"} inside the shared bench envelope.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/surfnet.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace surfnet;
  using core::ConnectionQuality;
  using core::FacilityLevel;
  using core::NetworkDesign;

  bench::ArgParser args("fig6a", argc, argv);
  const int trials = args.resolve_trials(120, 1080);
  if (!args.json())
    std::printf(
        "Fig. 6(a): Raw vs SurfNet — %d trials per cell, seed %llu\n\n",
        trials, static_cast<unsigned long long>(args.seed()));

  core::RunOptions options;
  options.seed = args.seed();
  options.threads = args.threads();
  options.sink = args.sink();

  util::Table table({"scenario", "fibers", "design", "throughput", "latency",
                     "fidelity", "fid_ci95"});
  std::vector<std::string> records;
  for (const auto level :
       {FacilityLevel::Abundant, FacilityLevel::Sufficient,
        FacilityLevel::Insufficient}) {
    for (const auto quality :
         {ConnectionQuality::Good, ConnectionQuality::Poor}) {
      const auto params = core::make_scenario(level, quality);
      for (const auto design :
           {NetworkDesign::SurfNet, NetworkDesign::Raw}) {
        const auto agg = core::run_trials(params, design, trials, options);
        table.add_row({std::string(core::to_string(level)),
                       std::string(core::to_string(quality)),
                       std::string(core::to_string(design)),
                       util::Table::fmt(agg.throughput.mean(), 3),
                       util::Table::fmt(agg.latency.mean(), 1),
                       util::Table::fmt(agg.fidelity.mean(), 3),
                       util::Table::fmt(agg.fidelity.ci95(), 3)});
        char record[256];
        std::snprintf(
            record, sizeof(record),
            "{\"scenario\": \"%s\", \"fibers\": \"%s\", \"design\": \"%s\", "
            "\"throughput\": %.4f, \"latency\": %.2f, \"fidelity\": %.4f, "
            "\"fid_ci95\": %.4f}",
            std::string(core::to_string(level)).c_str(),
            std::string(core::to_string(quality)).c_str(),
            std::string(core::to_string(design)).c_str(),
            agg.throughput.mean(), agg.latency.mean(), agg.fidelity.mean(),
            agg.fidelity.ci95());
        records.emplace_back(record);
      }
    }
  }
  args.finish_observability();
  if (args.json()) {
    args.print_json_envelope(records);
    return 0;
  }
  if (args.csv()) table.print_csv(std::cout);
  else table.print(std::cout);

  std::printf("\nPaper shape check: within each scenario, SurfNet and Raw "
              "should have similar throughput and latency, with SurfNet's "
              "fidelity clearly higher (Fig. 6(a.1)/(a.2)).\n");
  return 0;
}
