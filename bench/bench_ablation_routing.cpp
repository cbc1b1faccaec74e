// Routing ablation + LP scaling (paper Sec. V).
//
// Default mode prints two tables:
//  1. Ablation: centralized LP scheduling vs the hierarchical greedy
//     scheduler (paper Sec. V-B), swept over the offered load. Expected
//     shape: matched fidelity at every load; the LP's aggregate noise
//     accounting schedules more codes, the per-code hierarchical scheduler
//     is slightly more selective.
//  2. LP scaling: the sparse revised simplex on grid topologies, swept
//     over grid size x request count. Warm re-solves of a tightened
//     residual problem are compared against cold re-solves of the same
//     problem.
//
// Each sweep point runs three repetitions, each with a fresh formulation,
// a fresh LpSolver, its own cold solve and then the warm re-solve;
// sparse_ms (solver construction plus the cold solve) and warm_ms are the
// minimum over the three.
//
// --json emits one record per scaling sweep point in the shared bench
// envelope — the record schema is stable across commits:
//   {"grid", "requests", "lp_rows", "lp_cols", "lp_nonzeros",
//    "sparse_ms", "sparse_iterations", "warm_ms", "warm_iterations",
//    "cold_resolve_iterations", "objective"}
// To compare two builds, diff the deterministic fields (the *_iterations
// counts, objective, lp_rows, lp_cols, lp_nonzeros) and time the *_ms
// fields over at least 5 alternating runs per build: runs of one build
// still spread on a shared host, past the 10% that
// scripts/bench_compare.py flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/surfnet.h"
#include "routing/router.h"
#include "util/table.h"

namespace {

using namespace surfnet;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScalingRow {
  int grid = 0;
  int requests = 0;
  int lp_rows = 0;
  int lp_cols = 0;
  int lp_nonzeros = 0;
  double sparse_ms = 0.0;
  int sparse_iterations = 0;
  double warm_ms = 0.0;
  int warm_iterations = 0;
  int cold_resolve_iterations = 0;
  double objective = 0.0;
};

/// Residual problem: the shape of the re-solve route() performs after
/// rounding — request limits and capacities tightened, structure intact.
void tighten(routing::RoutingFormulation& formulation,
             const netsim::Topology& topology,
             const std::vector<netsim::Request>& requests) {
  for (int k = 0; k < formulation.num_requests(); ++k)
    formulation.set_request_limit(
        k, 0.5 * static_cast<double>(
                     requests[static_cast<std::size_t>(k)].codes));
  for (int v = 0; v < topology.num_nodes(); ++v)
    formulation.set_storage_capacity(
        v, 0.7 * topology.node(v).storage_capacity);
  for (int e = 0; e < topology.num_fibers(); ++e)
    formulation.set_entanglement_capacity(
        e, 0.7 * topology.fiber(e).entanglement_capacity);
}

/// Repetitions per sweep point; sparse_ms and warm_ms are their minimum.
constexpr int kTimingRepetitions = 3;

ScalingRow run_scaling_point(int grid, int num_requests, std::uint64_t seed) {
  netsim::GridSpec gspec;
  gspec.width = grid;
  gspec.height = grid;
  util::Rng rng(seed + static_cast<std::uint64_t>(grid * 1000 +
                                                  num_requests));
  const auto topology = netsim::make_grid_topology(gspec, rng);
  const auto requests = netsim::random_requests(topology, num_requests,
                                                /*max_codes=*/3, rng);
  routing::RoutingParams params;
  params.core_noise_threshold = 0.6;
  params.total_noise_threshold = 0.7;
  params.ec_reduction = 0.15;

  ScalingRow row;
  row.grid = grid;
  row.requests = num_requests;
  row.sparse_ms = std::numeric_limits<double>::infinity();
  row.warm_ms = row.sparse_ms;
  // Each repetition builds its own formulation and solver, so one timing
  // does not hinge on where the heap happened to put one solver's buffers.
  for (int rep = 0; rep < kTimingRepetitions; ++rep) {
    routing::RoutingFormulation formulation(topology, requests, params);
    row.lp_rows = formulation.problem().num_rows();
    row.lp_cols = formulation.problem().num_vars();
    row.lp_nonzeros = static_cast<int>(formulation.problem().num_nonzeros());

    // Sparse cold solve; the solver keeps its basis for the warm re-solve
    // below.
    double t0 = now_ms();
    routing::LpSolver solver(formulation.problem());
    const auto sparse = solver.solve();
    row.sparse_ms = std::min(row.sparse_ms, now_ms() - t0);
    row.sparse_iterations = sparse.iterations;
    row.objective = sparse.objective;

    tighten(formulation, topology, requests);
    t0 = now_ms();
    const auto warm = solver.solve();
    row.warm_ms = std::min(row.warm_ms, now_ms() - t0);
    row.warm_iterations = warm.iterations;
    if (rep == 0)
      row.cold_resolve_iterations =
          routing::LpSolver(formulation.problem()).solve().iterations;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args("ablation_routing", argc, argv, {.json = true});

  // --- LP scaling sweep (always computed: it is the --json payload). ---
  std::vector<ScalingRow> scaling;
  for (const int grid : {4, 6, 8})
    for (const int num_requests : {8, 16, 32, 64})
      scaling.push_back(run_scaling_point(grid, num_requests, args.seed()));

  if (args.json()) {
    std::vector<std::string> records;
    records.reserve(scaling.size());
    for (const auto& r : scaling) {
      char record[512];
      std::snprintf(
          record, sizeof(record),
          "{\"grid\": %d, \"requests\": %d, \"lp_rows\": %d, "
          "\"lp_cols\": %d, \"lp_nonzeros\": %d, \"sparse_ms\": %.2f, "
          "\"sparse_iterations\": %d, \"warm_ms\": %.2f, "
          "\"warm_iterations\": %d, \"cold_resolve_iterations\": %d, "
          "\"objective\": %.4f}",
          r.grid, r.requests, r.lp_rows, r.lp_cols, r.lp_nonzeros,
          r.sparse_ms, r.sparse_iterations, r.warm_ms, r.warm_iterations,
          r.cold_resolve_iterations, r.objective);
      records.emplace_back(record);
    }
    args.finish_observability();
    args.print_json_envelope(records);
    return 0;
  }

  // --- Ablation: LP vs greedy on the paper's random scenarios. ---
  using namespace surfnet;
  const int trials = args.resolve_trials(150, 1080);
  std::printf("Ablation: centralized LP vs hierarchical greedy routing — "
              "%d trials per point, seed %llu\n\n",
              trials, static_cast<unsigned long long>(args.seed()));

  const auto base = core::make_scenario(core::FacilityLevel::Sufficient,
                                        core::ConnectionQuality::Good);
  util::Table table({"requests", "router", "throughput", "fidelity"});

  for (const int num_requests : {2, 4, 8, 12, 16}) {
    for (const bool centralized : {true, false}) {
      auto params = base;
      params.num_requests = num_requests;
      const auto agg =
          centralized ? core::run_trials(params, core::NetworkDesign::SurfNet,
                                         trials, args.options())
                      : bench::run_greedy_trials(params, trials,
                                                 args.options());
      table.add_row({std::to_string(num_requests),
                     centralized ? "LP (centralized)" : "greedy (hier.)",
                     util::Table::fmt(agg.throughput.mean(), 3),
                     util::Table::fmt(agg.fidelity.mean(), 3)});
    }
  }
  table.print(std::cout);
  std::printf("\nExpected shape: matched fidelity at every load; the LP's "
              "aggregate noise accounting and global view schedule more "
              "codes, the per-code hierarchical scheduler is more "
              "selective (slightly higher fidelity, lower throughput).\n");

  // --- LP scaling table. ---
  std::printf("\nLP scaling: sparse revised simplex on grid "
              "topologies\n\n");
  util::Table scale_table({"grid", "requests", "rows", "cols", "nnz",
                           "sparse ms", "iters", "warm iters",
                           "cold iters"});
  for (const auto& r : scaling)
    scale_table.add_row(
        {std::to_string(r.grid) + "x" + std::to_string(r.grid),
         std::to_string(r.requests), std::to_string(r.lp_rows),
         std::to_string(r.lp_cols), std::to_string(r.lp_nonzeros),
         util::Table::fmt(r.sparse_ms, 1),
         std::to_string(r.sparse_iterations),
         std::to_string(r.warm_iterations),
         std::to_string(r.cold_resolve_iterations)});
  scale_table.print(std::cout);
  std::printf("\nWarm re-solves restart from the previous basis and need "
              "far fewer iterations than cold re-solves of the same "
              "residual problem.\n");
  return 0;
}
