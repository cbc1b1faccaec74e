// Dynamic-traffic throughput: open-loop arrival/departure streams driving
// the greedy-only incremental router (netsim/workload.h +
// routing/incremental.h), swept over arrival rate x network size, plus a
// sustained-load cell that pushes one million requests through a single
// stream. Every traffic row reports steady-state metrics (blocking
// probability, p50/p99 delivery latency, admitted codes per slot) next to
// the engine throughput in simulated requests per wall-clock second. The
// traffic sweep solves no LP: admission is plan_code over the live
// capacity tracker, and the headroom probe reads the tracker.
//
// The second section measures the warm restarts of the batch LP router:
// route() keeps one LpSolver, and the basis each solve ends with, across
// its rounding re-solves, each of which changes request limits and
// capacities but not the formulation's shape. For each delta size
// (requests per re-solve) it solves the identical routing LP cold (a fresh
// solver every call) and warm (one solver kept across calls, as route()
// keeps it) and asserts the warm solve needs strictly fewer simplex
// iterations at EVERY delta size — the bench exits nonzero otherwise, and
// CI gates the committed Release baseline
// (bench/baselines/traffic_release.json) with scripts/bench_compare.py
// --key cell --metric requests_per_sec.
//
// All rows are single-stream by construction (an open-loop stream is one
// causal chain), so --threads accepts only 1; --trials scales the
// warm/cold timing repetitions.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/surfnet.h"
#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "routing/router.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace surfnet;

double ms_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - begin)
             .count() /
         1e6;
}

// ---------------------------------------------------------------------------
// Traffic sweep.

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
  // The sustained-load headline: one million requests through one stream,
  // overload shed by a realistic admission cap (the load gate is O(1), so
  // the stream's cost tracks admissions, not offered load).
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

// ---------------------------------------------------------------------------
// Warm-started vs cold LP re-solve.

struct WarmRow {
  int delta = 1;  ///< requests per re-solve
  long cold_iterations = 0;
  long warm_iterations = 0;
  double cold_ms = 0.0;  ///< per solve
  double warm_ms = 0.0;  ///< per solve
  double requests_per_sec = 0.0;  ///< warm-path requests routed per second
};

/// One re-solve step at delta size d: toggle one request's admitted
/// limit (a shape-stable bound mutation, like route()'s residual
/// re-solves) and re-solve the d-commodity formulation. The cold pass
/// solves every step with a fresh solver, the warm pass keeps one solver
/// and its basis across steps — both see the identical mutation sequence.
WarmRow run_delta(int delta, std::uint64_t seed, int reps) {
  util::Rng setup(seed);
  netsim::TopologySpec spec;
  spec.storage_capacity = 120;
  spec.entanglement_capacity = 40;
  const auto topology = netsim::make_random_topology(spec, setup);
  const auto requests = netsim::random_requests(topology, delta, 1, setup);
  const routing::RoutingParams params;

  WarmRow row;
  row.delta = delta;

  const auto mutate = [&](routing::RoutingFormulation& f, int step) {
    f.set_request_limit(step % delta, step % 2 == 0 ? 0.0 : 1.0);
  };

  // Cold: every re-solve starts from scratch.
  {
    routing::RoutingFormulation formulation(topology, requests, params);
    const auto begin = std::chrono::steady_clock::now();
    for (int step = 0; step < reps; ++step) {
      mutate(formulation, step);
      const auto solution = routing::LpSolver(formulation.problem()).solve();
      row.cold_iterations += solution.iterations;
    }
    row.cold_ms = ms_since(begin) / reps;
  }

  // Warm: one solver keeps its basis across re-solves, as in route().
  {
    routing::RoutingFormulation formulation(topology, requests, params);
    routing::LpSolver solver(formulation.problem());
    solver.solve();  // prime
    const auto begin = std::chrono::steady_clock::now();
    for (int step = 0; step < reps; ++step) {
      mutate(formulation, step);
      const auto solution = solver.solve();
      row.warm_iterations += solution.iterations;
    }
    row.warm_ms = ms_since(begin) / reps;
  }

  if (row.warm_ms > 0.0)
    row.requests_per_sec = delta / (row.warm_ms / 1e3);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args("traffic", argc, argv, {.json = true});
  // Each row is a timed stream, and CI's traffic gate times the rows one
  // at a time: there are no trials to fan out.
  args.require_one_thread();
  const int reps = args.resolve_trials(5, 20);

  if (!args.json())
    std::printf("Dynamic-traffic engine: open-loop streams over the "
                "greedy-only incremental router, seed %llu\n\n",
                static_cast<unsigned long long>(args.seed()));

  // --metrics-out/--trace-out attach a live sink; note a trace sink
  // records every arrival/admit/blocked/depart, so prefer small
  // --trials runs when tracing the sustained cell.
  std::vector<TrafficRow> traffic;
  for (const auto& cell : traffic_cells())
    traffic.push_back(run_cell(cell, args.seed(), args.sink()));

  std::vector<WarmRow> warm;
  for (const int delta : {1, 2, 4, 8, 16, 32})
    warm.push_back(run_delta(delta, args.seed(), reps));

  // Acceptance assertions — the bench is its own gate.
  bool failed = false;
  const auto& big = traffic.back();
  if (big.result.arrivals < 1000000) {
    std::fprintf(stderr,
                 "FATAL: sustained cell processed %lld requests "
                 "(needs >= 1000000)\n",
                 big.result.arrivals);
    failed = true;
  }
  for (const auto& row : warm) {
    if (row.warm_iterations >= row.cold_iterations) {
      std::fprintf(stderr,
                   "FATAL: delta=%d warm solve took %ld iterations, cold "
                   "%ld — warm start must strictly beat cold at every "
                   "delta size\n",
                   row.delta, row.warm_iterations, row.cold_iterations);
      failed = true;
    }
  }
  if (failed) return 1;

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
    for (const auto& r : warm) {
      char record[384];
      std::snprintf(
          record, sizeof(record),
          "{\"cell\": \"delta_%d\", \"delta\": %d, "
          "\"cold_iterations\": %ld, \"warm_iterations\": %ld, "
          "\"cold_ms\": %.3f, \"warm_ms\": %.3f, "
          "\"iteration_ratio\": %.2f, \"requests_per_sec\": %.1f}",
          r.delta, r.delta, r.cold_iterations, r.warm_iterations, r.cold_ms,
          r.warm_ms,
          r.warm_iterations > 0 ? static_cast<double>(r.cold_iterations) /
                                      static_cast<double>(r.warm_iterations)
                                : static_cast<double>(r.cold_iterations),
          r.requests_per_sec);
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

  std::printf("\nWarm-started vs cold LP re-solve (%d reps):\n",
              reps);
  util::Table resolve({"delta", "cold iters", "warm iters", "cold ms",
                       "warm ms", "iter ratio"});
  for (const auto& r : warm)
    resolve.add_row(
        {std::to_string(r.delta), std::to_string(r.cold_iterations),
         std::to_string(r.warm_iterations), util::Table::fmt(r.cold_ms, 3),
         util::Table::fmt(r.warm_ms, 3),
         util::Table::fmt(r.warm_iterations > 0
                              ? static_cast<double>(r.cold_iterations) /
                                    static_cast<double>(r.warm_iterations)
                              : static_cast<double>(r.cold_iterations),
                          1)});
  resolve.print(std::cout);
  std::printf("\nWarm start strictly beats cold at every delta size "
              "(asserted above); the sustained cell pushed %lld requests "
              "through one stream.\n",
              big.result.arrivals);
  return 0;
}
