// Dynamic-traffic throughput: open-loop arrival/departure streams driving
// the greedy-only incremental router (netsim/workload.h +
// routing/incremental.h), swept over arrival rate x network size, plus a
// sustained-load cell that pushes one million requests through a single
// stream. Every row reports steady-state metrics (blocking probability,
// p50/p99 delivery latency, admitted codes per slot) next to the engine
// throughput in simulated requests per wall-clock second. The traffic
// sweep solves no LP: admission is plan_code over the live capacity
// tracker, and the headroom probe reads the tracker. The bench exits
// nonzero when the sustained cell falls short of one million requests, and
// CI gates the committed Release baseline
// (bench/baselines/traffic_release.json) with scripts/bench_compare.py
// --key cell --metric requests_per_sec.
//
// The rows are fixed single streams (an open-loop stream is one causal
// chain), so --threads accepts only 1, and --trials and --full are
// refused.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/surfnet.h"
#include "netsim/workload.h"
#include "util/table.h"

namespace {

using namespace surfnet;

double ms_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - begin)
             .count() /
         1e6;
}

struct TrafficCell {
  std::string name;
  int nodes = 24;
  double rate = 0.5;          ///< arrivals per slot
  long long requests = 20000;  ///< stream length (max_requests)
  int max_active_codes = 0;    ///< admission cap (0 = unlimited)
};

std::vector<TrafficCell> traffic_cells() {
  std::vector<TrafficCell> cells;
  for (const int nodes : {24, 48})
    for (const double rate : {0.5, 2.0}) {
      TrafficCell cell;
      cell.name = "rate" + std::string(rate < 1.0 ? "0.5" : "2.0") + "_n" +
                  std::to_string(nodes);
      cell.nodes = nodes;
      cell.rate = rate;
      cells.push_back(std::move(cell));
    }
  // The sustained-load headline: one million requests through one stream
  // at 4 arrivals per slot. Its admission cap of 60 active codes never
  // binds at the default seed (every arrival reaches the router), so the
  // cell times the planner at that rate, not the O(1) load gate.
  TrafficCell big;
  big.name = "sustained_1m";
  big.nodes = 24;
  big.rate = 4.0;
  big.requests = 1000000;
  big.max_active_codes = 60;
  cells.push_back(std::move(big));
  return cells;
}

struct TrafficRow {
  TrafficCell cell;
  netsim::TrafficResult result;
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
};

TrafficRow run_cell(const TrafficCell& cell, std::uint64_t seed,
                    const obs::Sink& sink) {
  core::TrafficScenario scenario = core::make_traffic_scenario(
      core::FacilityLevel::Sufficient, core::ConnectionQuality::Good);
  scenario.topology.num_nodes = cell.nodes;
  scenario.workload.arrival_rate = cell.rate;
  scenario.workload.max_requests = cell.requests;
  // The stream is request-bounded; the horizon only needs to be beyond
  // the expected stream length with heavy margin.
  scenario.workload.horizon_slots =
      static_cast<int>(cell.requests / cell.rate) * 4 + 100000;
  scenario.workload.warmup_slots = 500;
  scenario.workload.max_active_codes = cell.max_active_codes;

  TrafficRow row;
  row.cell = cell;
  const auto begin = std::chrono::steady_clock::now();
  row.result = core::run_traffic_trial(scenario, seed, sink);
  row.wall_ms = ms_since(begin);
  if (row.wall_ms > 0.0)
    row.requests_per_sec =
        static_cast<double>(row.result.arrivals) / (row.wall_ms / 1e3);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args("traffic", argc, argv, {.json = true});
  // Each row is a timed stream, and CI's traffic gate times the rows one
  // at a time: there are no trials to fan out or to count.
  args.require_one_thread();
  args.require_fixed_workload();

  if (!args.json())
    std::printf("Dynamic-traffic engine: open-loop streams over the "
                "greedy-only incremental router, seed %llu\n\n",
                static_cast<unsigned long long>(args.seed()));

  // --metrics-out/--trace-out attach a live sink; note a trace sink
  // records every arrival/admit/blocked/depart, over a million lines for
  // the sustained cell.
  std::vector<TrafficRow> traffic;
  for (const auto& cell : traffic_cells())
    traffic.push_back(run_cell(cell, args.seed(), args.sink()));

  // Acceptance assertion — the bench is its own gate.
  const auto& big = traffic.back();
  if (big.result.arrivals < 1000000) {
    std::fprintf(stderr,
                 "FATAL: sustained cell processed %lld requests "
                 "(needs >= 1000000)\n",
                 big.result.arrivals);
    return 1;
  }

  args.finish_observability();
  if (args.json()) {
    std::vector<std::string> records;
    for (const auto& r : traffic) {
      char record[512];
      std::snprintf(
          record, sizeof(record),
          "{\"cell\": \"%s\", \"nodes\": %d, \"arrival_rate\": %.2f, "
          "\"requests\": %lld, \"admitted\": %lld, \"blocked\": %lld, "
          "\"blocking_probability\": %.4f, \"p50_latency\": %.1f, "
          "\"p99_latency\": %.1f, \"admitted_per_slot\": %.4f, "
          "\"wall_ms\": %.1f, \"requests_per_sec\": %.1f}",
          r.cell.name.c_str(), r.cell.nodes, r.cell.rate, r.result.arrivals,
          r.result.admitted, r.result.blocked,
          r.result.blocking_probability(), r.result.latency_percentile(0.5),
          r.result.latency_percentile(0.99), r.result.admitted_per_slot(),
          r.wall_ms, r.requests_per_sec);
      records.emplace_back(record);
    }
    args.print_json_envelope(records);
    return 0;
  }

  util::Table sweep({"cell", "nodes", "rate", "requests", "blocked %",
                     "p50", "p99", "adm/slot", "wall ms", "req/s"});
  for (const auto& r : traffic)
    sweep.add_row({r.cell.name, std::to_string(r.cell.nodes),
                   util::Table::fmt(r.cell.rate, 1),
                   std::to_string(r.result.arrivals),
                   util::Table::fmt(100.0 * r.result.blocking_probability(),
                                    1),
                   util::Table::fmt(r.result.latency_percentile(0.5), 0),
                   util::Table::fmt(r.result.latency_percentile(0.99), 0),
                   util::Table::fmt(r.result.admitted_per_slot(), 2),
                   util::Table::fmt(r.wall_ms, 0),
                   util::Table::fmt(r.requests_per_sec, 0)});
  sweep.print(std::cout);

  std::printf("\nThe sustained cell pushed %lld requests through one "
              "stream.\n",
              big.result.arrivals);
  return 0;
}
