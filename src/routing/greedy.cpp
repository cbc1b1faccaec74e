#include "routing/greedy.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "netsim/channel.h"
#include "routing/validate.h"
#include "util/contracts.h"

namespace surfnet::routing {

using netsim::Request;
using netsim::Schedule;
using netsim::ScheduledRequest;
using netsim::Topology;

CapacityTracker::CapacityTracker(const Topology& topology,
                                 const RoutingParams& params)
    : topology_(&topology), params_(params) {
  params_.validate();
  node_capacity_.resize(static_cast<std::size_t>(topology.num_nodes()));
  for (int v = 0; v < topology.num_nodes(); ++v)
    node_capacity_[static_cast<std::size_t>(v)] =
        params.storage_scale() * topology.node(v).storage_capacity;
  fiber_pairs_.resize(static_cast<std::size_t>(topology.num_fibers()));
  for (int e = 0; e < topology.num_fibers(); ++e)
    fiber_pairs_[static_cast<std::size_t>(e)] =
        topology.fiber(e).entanglement_capacity;
}

bool CapacityTracker::path_feasible(const std::vector<int>& path) const {
  return path_feasible(path, params_.total_qubits(), params_.core_qubits);
}

bool CapacityTracker::path_feasible(const std::vector<int>& path,
                                    double node_demand,
                                    double pair_demand) const {
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    if (node_remaining(path[i]) < node_demand) return false;
  if (params_.dual_channel) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology_->fiber_between(path[i], path[i + 1]);
      if (e < 0 || fiber_pairs_remaining(e) < pair_demand) return false;
    }
  }
  return true;
}

void CapacityTracker::commit(const std::vector<int>& path) {
  commit(path, params_.total_qubits(), params_.core_qubits);
}

void CapacityTracker::commit(const std::vector<int>& path, double node_demand,
                             double pair_demand) {
  ++version_;
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(path[i])] -= node_demand;
  if (params_.dual_channel) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology_->fiber_between(path[i], path[i + 1]);
      fiber_pairs_[static_cast<std::size_t>(e)] -= pair_demand;
    }
  }
}

void CapacityTracker::release(const std::vector<int>& path) {
  release(path, params_.total_qubits(), params_.core_qubits);
}

void CapacityTracker::release(const std::vector<int>& path,
                              double node_demand, double pair_demand) {
  ++version_;
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(path[i])] += node_demand;
  if (params_.dual_channel) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology_->fiber_between(path[i], path[i + 1]);
      fiber_pairs_[static_cast<std::size_t>(e)] += pair_demand;
    }
  }
}

int adaptive_distance(double residual_noise) {
  if (residual_noise <= 0.10) return 3;
  if (residual_noise <= 0.30) return 4;
  return 5;
}

bool CapacityTracker::split_feasible(
    const std::vector<int>& core_path,
    const std::vector<int>& support_path) const {
  // Storage demand per node: Core and Support qubits are counted where
  // each part travels; a node on both paths stores both.
  const double support_demand =
      params_.dual_channel ? params_.support_qubits : params_.total_qubits();
  std::vector<std::pair<int, double>> demand;
  for (std::size_t i = 1; i + 1 < support_path.size(); ++i)
    demand.emplace_back(support_path[i], support_demand);
  for (std::size_t i = 1; i + 1 < core_path.size(); ++i)
    demand.emplace_back(core_path[i],
                        static_cast<double>(params_.core_qubits));
  std::vector<std::pair<int, double>> agg;
  for (const auto& [node, qubits] : demand) {
    bool found = false;
    for (auto& [n2, q2] : agg)
      if (n2 == node) {
        q2 += qubits;
        found = true;
      }
    if (!found) agg.emplace_back(node, qubits);
  }
  for (const auto& [node, qubits] : agg)
    if (node_remaining(node) < qubits) return false;
  for (std::size_t i = 0; i + 1 < core_path.size(); ++i) {
    const int e = topology_->fiber_between(core_path[i], core_path[i + 1]);
    if (e < 0 || fiber_pairs_remaining(e) < params_.core_qubits) return false;
  }
  return true;
}

void CapacityTracker::commit_split(const std::vector<int>& core_path,
                                   const std::vector<int>& support_path) {
  ++version_;
  const double support_demand =
      params_.dual_channel ? params_.support_qubits : params_.total_qubits();
  for (std::size_t i = 1; i + 1 < support_path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(support_path[i])] -=
        support_demand;
  for (std::size_t i = 1; i + 1 < core_path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(core_path[i])] -=
        params_.core_qubits;
  for (std::size_t i = 0; i + 1 < core_path.size(); ++i) {
    const int e = topology_->fiber_between(core_path[i], core_path[i + 1]);
    fiber_pairs_[static_cast<std::size_t>(e)] -= params_.core_qubits;
  }
}

void PlanWorkspace::clear() {
  topology_ = nullptr;
  tracker_ = nullptr;
}

void PlanWorkspace::bind(const Topology& topology,
                         const CapacityTracker& tracker,
                         const RoutingParams& params) {
  if (&topology != topology_) {
    topology_ = &topology;
    fiber_noise_.resize(static_cast<std::size_t>(topology.num_fibers()));
    for (int e = 0; e < topology.num_fibers(); ++e)
      fiber_noise_[static_cast<std::size_t>(e)] = topology.fiber_noise(e);
    servers_ = topology.servers();
    tracker_ = nullptr;  // trees of another topology are meaningless
  }
  const double node_demand = params.total_qubits();
  const double pair_demand = params.core_qubits;
  if (&tracker != tracker_ || tracker.version() != version_ ||
      node_demand != node_demand_ || pair_demand != pair_demand_ ||
      params.dual_channel != dual_channel_) {
    tracker_ = &tracker;
    version_ = tracker.version();
    node_demand_ = node_demand;
    pair_demand_ = pair_demand;
    dual_channel_ = params.dual_channel;
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
      if (dual_channel_ && tracker_->fiber_pairs_remaining(e) < pair_demand_)
        continue;
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
  const int max_ec = params.ec_reduction > 0.0
                         ? static_cast<int>(std::floor(
                               mu_total / params.ec_reduction))
                         : 0;
  const int ec_count =
      std::min<int>(static_cast<int>(servers_on_path.size()), max_ec);

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

std::optional<PlannedCode> plan_code(const Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst, PlanWorkspace& ws) {
  ws.bind(topology, tracker, params);
  std::vector<int> path;
  if (ws.route(src, dst, path)) {
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
      const double node_demand =
          plan->distance > 0
              ? RoutingParams::total_qubits_for(plan->distance)
              : params.total_qubits();
      const double pair_demand =
          plan->distance > 0 ? RoutingParams::core_qubits_for(plan->distance)
                             : params.core_qubits;
      if (!tracker.path_feasible(plan->path, node_demand, pair_demand))
        break;
      tracker.commit(plan->path, node_demand, pair_demand);
      // Merge consecutive identical plans of the same request.
      if (!schedule.scheduled.empty()) {
        auto& last = schedule.scheduled.back();
        if (last.request_index == static_cast<int>(k) &&
            last.support_path == plan->path &&
            last.ec_servers == plan->ec_servers &&
            last.code_distance == plan->distance) {
          ++last.codes;
          continue;
        }
      }
      ScheduledRequest s;
      s.request_index = static_cast<int>(k);
      s.codes = 1;
      s.support_path = plan->path;
      if (params.dual_channel) s.core_path = plan->path;
      s.ec_servers = plan->ec_servers;
      s.code_distance = plan->distance;
      schedule.scheduled.push_back(std::move(s));
    }
  }

#if SURFNET_CHECKS
  check_schedule_invariants(topology, requests, params, schedule);
#endif
  return schedule;
}

}  // namespace surfnet::routing
