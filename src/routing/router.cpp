#include "routing/router.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "netsim/channel.h"
#include "obs/metrics.h"
#include "routing/flow.h"
#include "routing/greedy.h"
#include "routing/validate.h"
#include "util/contracts.h"

namespace surfnet::routing {

using netsim::Request;
using netsim::Schedule;
using netsim::ScheduledRequest;
using netsim::Topology;

namespace {

/// EC servers for one code: servers on the core (or support, when raw)
/// path that also lie on the other path, capped by the noise lower bound.
std::vector<int> choose_ec_servers(const Topology& topology,
                                   const RoutingParams& params,
                                   const std::vector<int>& core_path,
                                   const std::vector<int>& support_path) {
  const auto& primary = core_path.empty() ? support_path : core_path;
  std::vector<int> servers;
  // EC needs the complete code, so a chosen server must appear on both
  // paths, and in the same order on each (the simulator synchronizes the
  // two parts barrier by barrier).
  std::size_t support_cursor = 1;
  for (std::size_t i = 1; i + 1 < primary.size(); ++i) {
    const int node = primary[i];
    if (!topology.is_server(node)) continue;
    if (!core_path.empty()) {
      const auto it = std::find(support_path.begin() +
                                    static_cast<std::ptrdiff_t>(support_cursor),
                                support_path.end() - 1, node);
      if (it == support_path.end() - 1) continue;
      support_cursor =
          static_cast<std::size_t>(it - support_path.begin()) + 1;
    }
    servers.push_back(node);
  }
  const int max_ec =
      params.max_corrections(netsim::path_noise(topology, primary));
  if (static_cast<int>(servers.size()) > max_ec)
    servers.resize(static_cast<std::size_t>(std::max(0, max_ec)));
  return servers;
}

}  // namespace

RouteResult route(const Topology& topology,
                  const std::vector<Request>& requests,
                  const RoutingParams& params, util::Rng& rng) {
  RouteResult result;
  result.schedule.requested_codes = netsim::requested_codes(requests);

  RoutingFormulation formulation(topology, requests, params);
  // One solver serves every solve: the re-solves below change only bounds
  // and right-hand sides, which each solve re-reads. The first solve starts
  // from the formulation's flow trees; every later solve starts from the
  // basis the previous one left in the solver.
  LpSolver solver(formulation.problem());
  solver.crash(formulation.crash_hint());
  const auto solve = [&] {
    LpSolution sol = solver.solve(params.sink);
    if (sol.status == LpStatus::IterationLimit && params.sink.metrics)
      params.sink.metrics->count("route.lp_iteration_limits");
    return sol;
  };
  const LpSolution lp = solve();
  result.status = lp.status;
  result.cold_iterations = lp.iterations;
  // Report the throughput part of the objective (sum of Y_k), not the
  // noise-regularized value: it is the meaningful upper bound on codes.
  const auto throughput = [&](const LpSolution& sol) {
    double total_y = 0.0;
    for (int k = 0; k < formulation.num_requests(); ++k)
      total_y += sol.x[static_cast<std::size_t>(formulation.vars(k).y)];
    return total_y;
  };
  if (lp.status != LpStatus::Optimal) {
    // Fall back entirely to the greedy scheduler (which validates its own
    // schedule under SURFNET_CHECKS).
    if (params.sink.metrics)
      params.sink.metrics->count("route.greedy_fallbacks");
    result.greedy_fallback = true;
    result.schedule = route_greedy(topology, requests, params, rng);
    return result;
  }
  result.lp_objective = throughput(lp);

  CapacityTracker tracker(topology, params);
  const CodeDemand demand = params.demand();
  const int de_count = formulation.num_directed_edges();

  std::vector<int> scheduled_codes(requests.size(), 0);
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  // Round one LP solution into committed codes; returns how many codes
  // this pass scheduled. Re-runs against the residual tracker state on
  // every warm re-solve.
  const auto round_solution = [&](const LpSolution& sol) {
    int committed = 0;
    for (std::size_t k : order) {
      const Request& req = requests[k];
      const auto& vars = formulation.vars(static_cast<int>(k));
      const double y = sol.x[static_cast<std::size_t>(vars.y)];
      const int target =
          std::min(static_cast<int>(std::floor(y + 1e-4)),
                   req.codes - scheduled_codes[k]);
      if (target <= 0) continue;

      // The LP's flows count qubits; a code's storage per part turns them
      // into codes.
      std::vector<double> support_flow(static_cast<std::size_t>(de_count),
                                       0.0);
      std::vector<double> core_flow(static_cast<std::size_t>(de_count), 0.0);
      for (int de = 0; de < de_count; ++de) {
        const int vb = vars.b[static_cast<std::size_t>(de)];
        if (vb >= 0)
          support_flow[static_cast<std::size_t>(de)] =
              sol.x[static_cast<std::size_t>(vb)] / demand.support_storage;
        if (params.dual_channel) {
          const int va = vars.a[static_cast<std::size_t>(de)];
          if (va >= 0)
            core_flow[static_cast<std::size_t>(de)] =
                sol.x[static_cast<std::size_t>(va)] / demand.core_storage;
        }
      }

      const auto support_paths = decompose_flow(
          formulation, topology.num_nodes(), support_flow, req.src, req.dst);
      const auto support_alloc = allocate_codes(support_paths, target);
      std::vector<std::vector<int>> support_per_code;
      for (std::size_t p = 0; p < support_paths.size(); ++p)
        for (int c = 0; c < support_alloc[p]; ++c)
          support_per_code.push_back(support_paths[p].nodes);

      std::vector<std::vector<int>> core_per_code;
      if (params.dual_channel) {
        const auto core_paths = decompose_flow(
            formulation, topology.num_nodes(), core_flow, req.src, req.dst);
        const auto core_alloc = allocate_codes(core_paths, target);
        for (std::size_t p = 0; p < core_paths.size(); ++p)
          for (int c = 0; c < core_alloc[p]; ++c)
            core_per_code.push_back(core_paths[p].nodes);
      } else {
        core_per_code.resize(support_per_code.size());  // Raw: no Core part
      }

      const std::size_t codes =
          std::min(support_per_code.size(), core_per_code.size());
      for (std::size_t c = 0; c < codes; ++c) {
        const std::vector<int>& support = support_per_code[c];
        const std::vector<int>& core = core_per_code[c];
        if (!tracker.feasible(core, support, demand)) continue;
        tracker.commit(core, support, demand);
        ++scheduled_codes[k];
        ++committed;
        result.schedule.add_code(
            static_cast<int>(k), core, support,
            choose_ec_servers(topology, params, core, support));
      }
    }
    return committed;
  };

  const int rounded = round_solution(lp);
  int resolved = 0;

  // Warm re-solves: shrink the LP to the residual problem (codes still
  // unscheduled, capacity the committed codes left behind) and round
  // again, reusing the basis from the previous solve. Two rounds recover
  // most of what the first rounding dropped; after that the greedy top-up
  // is cheaper than another solve.
  constexpr int kMaxResolves = 2;
  for (int round = 0; round < kMaxResolves; ++round) {
    int remaining = 0;
    for (std::size_t k = 0; k < requests.size(); ++k)
      remaining += requests[k].codes - scheduled_codes[k];
    if (remaining <= 0) break;

    for (std::size_t k = 0; k < requests.size(); ++k)
      formulation.set_request_limit(
          static_cast<int>(k),
          static_cast<double>(requests[k].codes - scheduled_codes[k]));
    for (int v = 0; v < topology.num_nodes(); ++v)
      formulation.set_storage_capacity(
          v, std::max(0.0, tracker.node_remaining(v)));
    for (int e = 0; e < topology.num_fibers(); ++e)
      formulation.set_entanglement_capacity(
          e, std::max(0.0, tracker.fiber_pairs_remaining(e)));

    const LpSolution relp = solve();
    ++result.resolves;
    result.warm_iterations += relp.iterations;
    if (relp.status != LpStatus::Optimal) break;
    if (throughput(relp) < 0.5) break;  // no whole code left to gain
    const int committed = round_solution(relp);
    if (committed == 0) break;
    resolved += committed;
  }

  // Greedy top-up: reclaim codes the rounding dropped, while capacities and
  // noise thresholds still allow. Each code is its own entry (merging
  // would change the order the slot loop launches them in) and is charged
  // and recorded at the distance its plan chose, as route_greedy does.
  PlanWorkspace ws;
  int topped_up = 0;
  for (std::size_t k : order) {
    const Request& req = requests[k];
    while (scheduled_codes[k] < req.codes) {
      const auto plan =
          plan_code(topology, tracker, params, req.src, req.dst, ws);
      if (!plan) break;
      const CodeDemand code_demand = params.demand(plan->distance);
      if (!tracker.feasible(plan->path, plan->path, code_demand)) break;
      tracker.commit(plan->path, plan->path, code_demand);
      ++scheduled_codes[k];
      ++topped_up;
      result.schedule.scheduled.push_back(ScheduledRequest{
          static_cast<int>(k), 1,
          params.dual_channel ? plan->path : std::vector<int>{}, plan->path,
          plan->ec_servers, plan->distance});
    }
  }

  if (params.sink.metrics) {
    params.sink.metrics->count("route.codes_rounded", rounded);
    params.sink.metrics->count("route.codes_resolved", resolved);
    params.sink.metrics->count("route.codes_topped_up", topped_up);
  }

#if SURFNET_CHECKS
  // The rounded schedule must satisfy the integer program's constraints
  // (Eqs. (1)-(6)) no matter how the LP/rounding/top-up interplay went.
  check_schedule_invariants(topology, requests, params, result.schedule);
#endif
  return result;
}

}  // namespace surfnet::routing
