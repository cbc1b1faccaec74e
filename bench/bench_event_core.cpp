// Engine speedup: the every-slot oracle vs the engine on the same
// workloads. The oracle (detail::simulate_surfnet_every_slot) is the
// engine forced to visit every slot and sweep every entanglement pool;
// simulate_surfnet skips the slots it can prove idle. Sweeps network size
// (grid side), activity density (busy = a long stream of codes in
// constant motion; sparse = a single code pinned behind a scripted fiber
// cut until its request times out) and timeout length (short/long).
// Every cell runs both from the same seed and asserts the
// SimulationResults are identical before trusting the timings, so the
// speedup column can never come from divergent work.
//
// Expected shape: busy cells stay near 1x (every slot is visited either
// way; the engine trades queue upkeep against lazy per-fiber pools) while
// sparse cells grow with timeout length x fiber count — the oracle pays
// O(fibers) per waited slot, the engine jumps straight to the fault
// expiry/timeout. The sparse long-timeout row is the headline: the engine
// must clear 5x there (scripts/check_overhead.py gates the committed
// baseline). JSON keys follow that baseline's schema: `slot_ms` is the
// every-slot oracle, `event_ms` the engine.
//
// Both run unobserved on purpose: an attached sink forces every-slot
// visiting, so --metrics-out and --trace-out are refused (exit 2) rather
// than timing a different program.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/sim_internal.h"
#include "netsim/simulator.h"
#include "netsim/topology.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace surfnet;

struct Scenario {
  std::string name;    ///< "<density>_<timeout>" e.g. "sparse_long"
  int grid = 8;        ///< grid side (width = height)
  int codes = 1;       ///< codes on the single scheduled request
  bool blocked = false;  ///< scripted cut pins the code for the whole run
  int timeout_slots = 0;
  int max_slots = 0;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const int grid : {8, 16, 24}) {
    for (const bool blocked : {false, true}) {
      for (const int timeout : {2000, 50000}) {
        Scenario s;
        s.name = std::string(blocked ? "sparse" : "busy") +
                 (timeout > 2000 ? "_long" : "_short");
        s.grid = grid;
        s.codes = blocked ? 1 : 32;
        s.blocked = blocked;
        s.timeout_slots = timeout;
        s.max_slots = timeout + 1000;
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

/// Vertical column x = 1: endpoints are boundary users, interior nodes
/// switches/servers, consecutive nodes 4-neighbors.
std::vector<int> column_path(int width, int height) {
  std::vector<int> path;
  path.reserve(static_cast<std::size_t>(height));
  for (int y = 0; y < height; ++y) path.push_back(1 + y * width);
  return path;
}

netsim::Schedule make_schedule(const std::vector<int>& path, int codes) {
  netsim::ScheduledRequest request;
  request.request_index = 0;
  request.codes = codes;
  request.support_path = path;
  request.core_path = path;
  netsim::Schedule schedule;
  schedule.requested_codes = codes;
  schedule.scheduled.push_back(std::move(request));
  return schedule;
}

netsim::SimulationParams make_params(const netsim::Topology& topology,
                                     const std::vector<int>& path,
                                     const Scenario& s) {
  netsim::SimulationParams params;
  params.max_slots = s.max_slots;
  params.entanglement_rate = 2.0;  // integral: no per-fiber draws
  params.recovery.code_timeout_slots = s.timeout_slots;
  if (s.blocked) {
    // Permanent cut on the first fiber of the path: the code holds at the
    // source until its timeout fires. Recovery stays off so the hold is
    // not rerouted around.
    netsim::FaultEvent cut;
    cut.kind = netsim::FaultKind::FiberCut;
    cut.slot = 0;
    cut.duration = s.max_slots;
    cut.target = topology.fiber_between(path[0], path[1]);
    params.faults.scripted.push_back(cut);
    params.recovery.local_reroute = false;
  }
  return params;
}

/// Result fingerprint for the oracle-vs-engine equality assertion.
std::string dump(const netsim::SimulationResult& r) {
  std::ostringstream out;
  out << r.codes_scheduled << '/' << r.codes_delivered << '/'
      << r.codes_succeeded << '/' << r.total_latency << '\n';
  for (const auto& c : r.codes)
    out << c.request << ' ' << c.slots << ' ' << c.corrections << ' '
        << static_cast<int>(c.outcome) << '\n';
  return out.str();
}

struct Row {
  Scenario scenario;
  int nodes = 0;
  int fibers = 0;
  int trials = 0;
  double slot_ms = 0.0;
  double event_ms = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // Refuse a sink before ArgParser opens any output file.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 ||
        std::strcmp(argv[i], "--trace-out") == 0) {
      std::fprintf(stderr,
                   "event_core: %s unsupported: a sink forces the every-slot "
                   "path, so the engine timing would measure a different "
                   "program\n",
                   argv[i]);
      return 2;
    }
  }
  bench::ArgParser args("event_core", argc, argv);
  const int trials = args.resolve_trials(3, 10);
  const decoder::SurfNetDecoder dec;

  if (!args.json())
    std::printf("Engine speedup: every-slot oracle vs engine, %d "
                "trial(s) per cell, seed %llu\n\n",
                trials, static_cast<unsigned long long>(args.seed()));

  std::vector<Row> rows;
  for (const auto& scenario : scenarios()) {
    netsim::GridSpec spec;
    spec.width = scenario.grid;
    spec.height = scenario.grid;
    util::Rng topo_rng(args.seed());
    const auto topology = netsim::make_grid_topology(spec, topo_rng);
    const auto path = column_path(scenario.grid, scenario.grid);
    const auto schedule = make_schedule(path, scenario.codes);
    const auto params = make_params(topology, path, scenario);

    Row row;
    row.scenario = scenario;
    row.nodes = topology.num_nodes();
    row.fibers = topology.num_fibers();
    row.trials = trials;

    std::int64_t slot_ns = 0, event_ns = 0;
    util::Rng seeder(args.seed());
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed = seeder();
      const auto timed = [&](decltype(&netsim::simulate_surfnet) simulate,
                             std::int64_t& ns) {
        util::Rng rng(seed);
        const auto begin = std::chrono::steady_clock::now();
        const auto result = simulate(topology, schedule, params, dec, rng);
        ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - begin)
                  .count();
        return dump(result);
      };
      const std::string slot_dump =
          timed(&netsim::detail::simulate_surfnet_every_slot, slot_ns);
      const std::string event_dump =
          timed(&netsim::simulate_surfnet, event_ns);
      if (slot_dump != event_dump) {
        std::fprintf(stderr,
                     "FATAL: engine diverged from the every-slot oracle on "
                     "%s grid=%d seed=%llu\n"
                     "every-slot:\n%s\nengine:\n%s\n",
                     scenario.name.c_str(), scenario.grid,
                     static_cast<unsigned long long>(seed),
                     slot_dump.c_str(), event_dump.c_str());
        return 1;
      }
    }
    row.slot_ms = static_cast<double>(slot_ns) / 1e6;
    row.event_ms = static_cast<double>(event_ns) / 1e6;
    if (event_ns > 0)
      row.speedup = static_cast<double>(slot_ns) /
                    static_cast<double>(event_ns);
    rows.push_back(std::move(row));
  }

  if (args.json()) {
    std::vector<std::string> records;
    records.reserve(rows.size());
    for (const auto& r : rows) {
      char record[320];
      std::snprintf(
          record, sizeof(record),
          "{\"scenario\": \"%s\", \"grid\": %d, \"nodes\": %d, "
          "\"fibers\": %d, \"codes\": %d, \"timeout_slots\": %d, "
          "\"max_slots\": %d, \"trials\": %d, \"slot_ms\": %.3f, "
          "\"event_ms\": %.3f, \"speedup\": %.2f}",
          r.scenario.name.c_str(), r.scenario.grid, r.nodes, r.fibers,
          r.scenario.codes, r.scenario.timeout_slots, r.scenario.max_slots,
          r.trials, r.slot_ms, r.event_ms, r.speedup);
      records.emplace_back(record);
    }
    args.print_json_envelope(records);
    return 0;
  }

  util::Table table({"scenario", "grid", "fibers", "codes", "timeout",
                     "every-slot ms", "engine ms", "speedup"});
  for (const auto& r : rows)
    table.add_row({r.scenario.name, std::to_string(r.scenario.grid),
                   std::to_string(r.fibers),
                   std::to_string(r.scenario.codes),
                   std::to_string(r.scenario.timeout_slots),
                   util::Table::fmt(r.slot_ms, 2),
                   util::Table::fmt(r.event_ms, 2),
                   util::Table::fmt(r.speedup, 1)});
  table.print(std::cout);
  std::printf("\nExpected shape: busy cells near 1x (every slot is active "
              "either way); sparse cells scale with timeout x fibers, far "
              "past the 5x acceptance floor on the long rows.\n");
  return 0;
}
