#include "routing/greedy.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "netsim/channel.h"
#include "routing/validate.h"
#include "util/contracts.h"

namespace surfnet::routing {

using netsim::Request;
using netsim::Schedule;
using netsim::Topology;

namespace {

const std::vector<int> kNoPath;  ///< the Core path of a Raw code

/// Is v a transit (interior) node of path?
bool transits(const std::vector<int>& path, int v) {
  return path.size() > 2 &&
         std::find(path.begin() + 1, path.end() - 1, v) != path.end() - 1;
}

}  // namespace

CapacityTracker::CapacityTracker(const Topology& topology,
                                 const RoutingParams& params)
    : topology_(&topology) {
  params.validate();
  node_capacity_.resize(static_cast<std::size_t>(topology.num_nodes()));
  for (int v = 0; v < topology.num_nodes(); ++v)
    node_capacity_[static_cast<std::size_t>(v)] =
        params.storage_scale() * topology.node(v).storage_capacity;
  fiber_pairs_.resize(static_cast<std::size_t>(topology.num_fibers()));
  for (int e = 0; e < topology.num_fibers(); ++e)
    fiber_pairs_[static_cast<std::size_t>(e)] =
        topology.fiber(e).entanglement_capacity;
}

bool CapacityTracker::feasible(const std::vector<int>& core_path,
                               const std::vector<int>& support_path,
                               const CodeDemand& demand, int codes) const {
  const double support_need = demand.support_storage * codes;
  const double core_need = demand.core_storage * codes;
  for (std::size_t i = 1; i + 1 < support_path.size(); ++i) {
    const int v = support_path[i];
    const bool both = transits(core_path, v);
    if (node_remaining(v) < support_need + (both ? core_need : 0.0))
      return false;
  }
  for (std::size_t i = 1; i + 1 < core_path.size(); ++i) {
    const int v = core_path[i];
    if (!transits(support_path, v) && node_remaining(v) < core_need)
      return false;
  }
  if (demand.pairs != 0.0) {
    const double pair_need = demand.pairs * codes;
    for (std::size_t i = 0; i + 1 < core_path.size(); ++i) {
      const int e = topology_->fiber_between(core_path[i], core_path[i + 1]);
      if (e < 0 || fiber_pairs_remaining(e) < pair_need) return false;
    }
  }
  return true;
}

void CapacityTracker::commit(const std::vector<int>& core_path,
                             const std::vector<int>& support_path,
                             const CodeDemand& demand, int codes) {
  charge(core_path, support_path, demand, codes);
}

void CapacityTracker::release(const std::vector<int>& core_path,
                              const std::vector<int>& support_path,
                              const CodeDemand& demand, int codes) {
  charge(core_path, support_path, demand, -static_cast<double>(codes));
}

void CapacityTracker::charge(const std::vector<int>& core_path,
                             const std::vector<int>& support_path,
                             const CodeDemand& demand, double codes) {
  ++version_;
  for (std::size_t i = 1; i + 1 < support_path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(support_path[i])] -=
        demand.support_storage * codes;
  for (std::size_t i = 1; i + 1 < core_path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(core_path[i])] -=
        demand.core_storage * codes;
  if (demand.pairs == 0.0) return;
  for (std::size_t i = 0; i + 1 < core_path.size(); ++i) {
    const int e = topology_->fiber_between(core_path[i], core_path[i + 1]);
    fiber_pairs_[static_cast<std::size_t>(e)] -= demand.pairs * codes;
  }
}

int adaptive_distance(double residual_noise) {
  if (residual_noise <= 0.10) return 3;
  if (residual_noise <= 0.30) return 4;
  return 5;
}

void PlanWorkspace::clear() {
  topology_ = nullptr;
  tracker_ = nullptr;
}

void PlanWorkspace::bind(const Topology& topology,
                         const CapacityTracker& tracker,
                         const CodeDemand& demand) {
  if (&topology != topology_) {
    topology_ = &topology;
    fiber_noise_.resize(static_cast<std::size_t>(topology.num_fibers()));
    for (int e = 0; e < topology.num_fibers(); ++e)
      fiber_noise_[static_cast<std::size_t>(e)] = topology.fiber_noise(e);
    servers_ = topology.servers();
    tracker_ = nullptr;  // trees of another topology are meaningless
  }
  const double node_demand = demand.support_storage + demand.core_storage;
  if (&tracker != tracker_ || tracker.version() != version_ ||
      node_demand != node_demand_ || demand.pairs != pair_demand_) {
    tracker_ = &tracker;
    version_ = tracker.version();
    node_demand_ = node_demand;
    pair_demand_ = demand.pairs;
    tree_slot_.assign(static_cast<std::size_t>(topology.num_nodes()), -1);
    trees_ = 0;
  }
}

std::size_t PlanWorkspace::tree(int root) {
  SURFNET_EXPECTS(root >= 0 &&
                  static_cast<std::size_t>(root) < tree_slot_.size());
  int& slot = tree_slot_[static_cast<std::size_t>(root)];
  if (slot >= 0) return static_cast<std::size_t>(slot);
  slot = static_cast<int>(trees_++);

  // Dijkstra from root over the whole network, minimizing accumulated
  // noise. Relaxation order, the strict < test and the (noise, node) heap
  // order are those of a point-to-point search, and a node that may not
  // carry a code onward is labelled but never expanded, so every label
  // and parent chain equals the point-to-point search to that target.
  const Topology& topology = *topology_;
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  const std::size_t base = static_cast<std::size_t>(slot) * n;
  if (dist_.size() < base + n) {
    dist_.resize(base + n);
    parent_.resize(base + n);
  }
  double* dist = dist_.data() + base;
  int* parent = parent_.data() + base;
  std::fill(dist, dist + n, std::numeric_limits<double>::infinity());
  std::fill(parent, parent + n, -1);
  dist[root] = 0.0;
  heap_.clear();
  heap_.emplace_back(0.0, root);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist[u]) continue;
    // Users and nodes without storage for one code end a route.
    if (u != root && (!topology.is_switch_or_server(u) ||
                      tracker_->node_remaining(u) < node_demand_))
      continue;
    for (int e : topology.incident(u)) {
      if (tracker_->fiber_pairs_remaining(e) < pair_demand_) continue;
      const int v = topology.other_end(e, u);
      const double nd = d + fiber_noise_[static_cast<std::size_t>(e)];
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
  return static_cast<std::size_t>(slot);
}

bool PlanWorkspace::route(int root, int target, std::vector<int>& path) {
  SURFNET_EXPECTS(target >= 0 &&
                  static_cast<std::size_t>(target) < tree_slot_.size());
  const std::size_t base =
      tree(root) * static_cast<std::size_t>(topology_->num_nodes());
  if (dist_[base + static_cast<std::size_t>(target)] ==
      std::numeric_limits<double>::infinity())
    return false;
  path.clear();
  for (int v = target; v != -1; v = parent_[base + static_cast<std::size_t>(v)])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return true;
}

double PlanWorkspace::path_noise(const std::vector<int>& path) const {
  double mu = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    mu += fiber_noise_[static_cast<std::size_t>(
        topology_->fiber_between(path[i], path[i + 1]))];
  return mu;
}

namespace {

/// check_path with the path's noise already summed.
std::optional<PlannedCode> check_path(const Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path,
                                      double mu_total) {
  std::vector<int> servers_on_path;
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    if (topology.is_server(path[i])) servers_on_path.push_back(path[i]);

  // Schedule as many corrections as the lower noise bound allows
  // (Eq. 6: core noise after corrections must stay >= 0).
  const int ec_count = std::min<int>(static_cast<int>(servers_on_path.size()),
                                     params.max_corrections(mu_total));

  // Threshold checks, mirroring the normalized Eq. (6). With adaptive
  // code sizes, the thresholds scale with the code's error tolerance:
  // a larger code survives proportionally more residual noise.
  const double after_ec = params.ec_reduction * ec_count;
  const double core_residual = mu_total - after_ec;
  int distance = 0;
  double threshold_scale = 1.0;
  if (params.adaptive_code_distance) {
    distance = adaptive_distance(core_residual);
    threshold_scale = (distance - 2.0) / 2.0;  // d=3: 0.5, d=4: 1, d=5: 1.5
  }
  const int n = params.core_qubits;
  const int total = params.total_qubits();
  if (params.dual_channel) {
    if (core_residual > threshold_scale * params.core_noise_threshold)
      return std::nullopt;
    const double whole =
        (0.5 * n * mu_total + (total - n) * mu_total) / total - after_ec;
    if (whole > threshold_scale * params.total_noise_threshold)
      return std::nullopt;
  } else {
    const double whole = mu_total - after_ec;
    if (whole > threshold_scale * params.total_noise_threshold)
      return std::nullopt;
  }

  PlannedCode plan;
  plan.path = path;
  plan.ec_servers.assign(servers_on_path.begin(),
                         servers_on_path.begin() + ec_count);
  plan.distance = distance;
  return plan;
}

bool is_simple(const std::vector<int>& path) {
  for (std::size_t i = 0; i < path.size(); ++i)
    for (std::size_t j = i + 1; j < path.size(); ++j)
      if (path[i] == path[j]) return false;
  return true;
}

}  // namespace

std::optional<PlannedCode> check_path(const Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path) {
  return check_path(topology, params, path,
                    netsim::path_noise(topology, path));
}

bool min_noise_route(const Topology& topology, const CapacityTracker& tracker,
                     const CodeDemand& demand, int src, int dst,
                     PlanWorkspace& ws, std::vector<int>& path) {
  ws.bind(topology, tracker, demand);
  return ws.route(src, dst, path);
}

std::optional<PlannedCode> plan_code(const Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst, PlanWorkspace& ws) {
  std::vector<int> path;
  if (min_noise_route(topology, tracker, params.demand(), src, dst, ws,
                      path)) {
    if (auto plan = check_path(topology, params, path, ws.path_noise(path)))
      return plan;
  }
  // The minimum-noise route may fail the thresholds simply because it
  // passes too few servers: detour through one server — or an ordered pair
  // of servers — (the hierarchical equivalent of the LP routing its flow
  // through EC sites) and keep the lowest-noise feasible composite.
  std::optional<PlannedCode> best;
  double best_mu = std::numeric_limits<double>::infinity();
  auto consider = [&](const std::vector<int>& composite) {
    if (!is_simple(composite)) return;
    const double mu = ws.path_noise(composite);
    if (mu >= best_mu) return;
    if (auto plan = check_path(topology, params, composite, mu)) {
      best = std::move(plan);
      best_mu = mu;
    }
  };

  // Composites are built in `path`, one leg (without its first node) at
  // a time.
  std::vector<int> leg;
  const auto append = [&](int root, int target) {
    if (!ws.route(root, target, leg)) return false;
    path.insert(path.end(), leg.begin() + 1, leg.end());
    return true;
  };
  for (const int server : ws.servers_) {
    if (server == src || server == dst) continue;
    path.assign(1, src);
    if (!append(src, server)) continue;
    const std::size_t first = path.size();
    if (append(server, dst)) consider(path);
    for (const int other : ws.servers_) {
      if (other == server || other == src || other == dst) continue;
      path.resize(first);
      if (!append(server, other)) continue;
      if (append(other, dst)) consider(path);
    }
  }
  return best;
}

Schedule route_greedy(const Topology& topology,
                      const std::vector<Request>& requests,
                      const RoutingParams& params, util::Rng& rng) {
  Schedule schedule;
  schedule.requested_codes = netsim::requested_codes(requests);

  CapacityTracker tracker(topology, params);
  PlanWorkspace ws;
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  for (std::size_t k : order) {
    const Request& req = requests[k];
    for (int code = 0; code < req.codes; ++code) {
      const auto plan =
          plan_code(topology, tracker, params, req.src, req.dst, ws);
      if (!plan) break;
      const CodeDemand demand = params.demand(plan->distance);
      if (!tracker.feasible(plan->path, plan->path, demand)) break;
      tracker.commit(plan->path, plan->path, demand);
      schedule.add_code(static_cast<int>(k),
                        params.dual_channel ? plan->path : kNoPath,
                        plan->path, plan->ec_servers, plan->distance);
    }
  }

#if SURFNET_CHECKS
  check_schedule_invariants(topology, requests, params, schedule);
#endif
  return schedule;
}

}  // namespace surfnet::routing
