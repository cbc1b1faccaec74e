// Reproduces paper Fig. 6(b): SurfNet fidelity and throughput as functions
// of the network and routing parameters, on the "sufficient" scenario with
// good fibers:
//   (b.1) facility capacity            — both metrics rise with resources
//   (b.2) entanglement generation rate — both metrics rise with resources
//   (b.3) messages per request         — throughput falls, fidelity flat
//   (b.4) fidelity threshold 1/2^Wc    — fidelity rises, throughput falls

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/surfnet.h"
#include "util/table.h"

namespace {

using namespace surfnet;

void run_series(const char* title, util::Table& table,
                const std::vector<std::pair<std::string,
                                            core::ScenarioParams>>& points,
                int trials, const core::RunOptions& options) {
  for (const auto& [label, params] : points) {
    const auto agg = core::run_trials(params, core::NetworkDesign::SurfNet,
                                      trials, options);
    table.add_row({title, label, util::Table::fmt(agg.fidelity.mean(), 3),
                   util::Table::fmt(agg.throughput.mean(), 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args("fig6b", argc, argv, {.csv = true});
  const int trials = args.resolve_trials(120, 1080);
  std::printf("Fig. 6(b): SurfNet parameter sensitivity — %d trials per "
              "point, seed %llu\n\n",
              trials, static_cast<unsigned long long>(args.seed()));

  const core::RunOptions options = args.options();

  const auto base = core::make_scenario(core::FacilityLevel::Sufficient,
                                        core::ConnectionQuality::Good);
  util::Table table({"sweep", "value", "fidelity", "throughput"});

  // (b.1) facility capacity: scale switch/server storage.
  {
    std::vector<std::pair<std::string, core::ScenarioParams>> points;
    for (const int capacity : {25, 50, 75, 100, 150, 200}) {
      auto params = base;
      params.topology.storage_capacity = capacity;
      points.emplace_back(std::to_string(capacity), params);
    }
    run_series("b.1 capacity", table, points, trials, options);
  }

  // (b.2) entanglement generation rate (expected pairs per slot; the
  // prepared-pair budget per round scales with it).
  {
    std::vector<std::pair<std::string, core::ScenarioParams>> points;
    for (const double rate : {0.5, 1.0, 2.0, 4.0, 6.0, 8.0}) {
      auto params = base;
      params.simulation.entanglement_rate = rate;
      params.topology.entanglement_capacity =
          std::max(7, static_cast<int>(rate * 7));
      points.emplace_back(util::Table::fmt(rate, 1), params);
    }
    run_series("b.2 ent-rate", table, points, trials, options);
  }

  // (b.3) messages per request.
  {
    std::vector<std::pair<std::string, core::ScenarioParams>> points;
    for (const int messages : {1, 2, 3, 4, 6, 8}) {
      auto params = base;
      params.max_codes_per_request = messages;
      points.emplace_back(std::to_string(messages), params);
    }
    run_series("b.3 msgs/req", table, points, trials, options);
  }

  // (b.4) routing fidelity threshold, reported as 1/2^Wc like the paper.
  {
    std::vector<std::pair<std::string, core::ScenarioParams>> points;
    for (const double wc : {0.8, 0.5, 0.35, 0.22, 0.12, 0.06}) {
      auto params = base;
      params.routing.core_noise_threshold = wc;
      params.routing.total_noise_threshold = wc * 1.4;
      const double threshold = std::pow(2.0, -wc);
      points.emplace_back(util::Table::fmt(threshold, 3), params);
    }
    run_series("b.4 fid-thresh", table, points, trials, options);
  }

  if (args.csv()) table.print_csv(std::cout);
  else table.print(std::cout);

  std::printf("\nPaper shape check: fidelity and throughput rise with "
              "capacity (b.1) and entanglement rate (b.2); messages per "
              "request depresses throughput but not fidelity (b.3); a "
              "higher fidelity threshold trades throughput for fidelity "
              "(b.4).\n");
  return 0;
}
