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
  bool stale = false;
  if (&topology != topology_) {
    topology_ = &topology;
    const auto m = static_cast<std::size_t>(topology.num_fibers());
    fiber_noise_.resize(m);
    hop_noise_.resize(m);
    fiber_ends_.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
      const netsim::Fiber& f = topology.fiber(static_cast<int>(e));
      fiber_noise_[e] = topology.fiber_noise(static_cast<int>(e));
      // The lowest-id fiber between f's ends is e or an earlier twin.
      const int lowest = topology.fiber_between(f.a, f.b);
      hop_noise_[e] = fiber_noise_[static_cast<std::size_t>(lowest)];
      fiber_ends_[e] = f.a ^ f.b;
    }
    servers_ = topology.servers();
    const auto n = static_cast<std::size_t>(topology.num_nodes());
    node_open_.assign(n, 0);
    fiber_open_.assign(m, 0);
    mark_.assign(n, 0);
    tracker_ = nullptr;  // read the predicates afresh
    stale = true;
  }
  const double node_demand = demand.support_storage + demand.core_storage;
  if (&tracker != tracker_ || tracker.version() != version_ ||
      node_demand != node_demand_ || demand.pairs != pair_demand_) {
    tracker_ = &tracker;
    version_ = tracker.version();
    node_demand_ = node_demand;
    pair_demand_ = demand.pairs;
    // The trees read capacity only through these two predicates, so a
    // commit or release that flips none of them keeps every tree.
    for (int v = 0; v < topology.num_nodes(); ++v) {
      const char open = topology.is_switch_or_server(v) &&
                        !(tracker.node_remaining(v) < node_demand);
      char& old = node_open_[static_cast<std::size_t>(v)];
      stale |= open != old;
      old = open;
    }
    for (int e = 0; e < topology.num_fibers(); ++e) {
      const char open = !(tracker.fiber_pairs_remaining(e) < demand.pairs);
      char& old = fiber_open_[static_cast<std::size_t>(e)];
      stale |= open != old;
      old = open;
    }
  }
  if (stale) {
    tree_slot_.assign(static_cast<std::size_t>(topology.num_nodes()), -1);
    trees_ = 0;
  }
}

const PlanWorkspace::Label* PlanWorkspace::tree(int root) {
  SURFNET_EXPECTS(root >= 0 &&
                  static_cast<std::size_t>(root) < tree_slot_.size());
  const Topology& topology = *topology_;
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  int& slot = tree_slot_[static_cast<std::size_t>(root)];
  if (slot >= 0) return labels_.data() + static_cast<std::size_t>(slot) * n;
  slot = static_cast<int>(trees_++);

  // Dijkstra from root over the whole network, minimizing accumulated
  // noise. Relaxation order, the strict < test and the (noise, node) heap
  // order are those of a point-to-point search, and a node that may not
  // carry a code onward is labelled but never expanded, so every parent
  // chain equals the point-to-point search to that target.
  const std::size_t base = static_cast<std::size_t>(slot) * n;
  if (labels_.size() < base + n) labels_.resize(base + n);
  Label* label = labels_.data() + base;
  std::fill(label, label + n, Label{});
  dist_.assign(n, std::numeric_limits<double>::infinity());
  dist_[static_cast<std::size_t>(root)] = 0.0;
  heap_.clear();
  heap_.emplace_back(0.0, root);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[static_cast<std::size_t>(u)]) continue;
    // Users and nodes without storage for one code end a route.
    if (u != root && !node_open_[static_cast<std::size_t>(u)]) continue;
    for (int e : topology.incident(u)) {
      const auto fe = static_cast<std::size_t>(e);
      if (!fiber_open_[fe]) continue;
      const int v = fiber_ends_[fe] ^ u;  // Topology::other_end(e, u)
      const double nd = d + fiber_noise_[fe];
      if (nd < dist_[static_cast<std::size_t>(v)]) {
        dist_[static_cast<std::size_t>(v)] = nd;
        label[v] = {hop_noise_[fe], u};
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
  return label;
}

const PlanWorkspace::Label* PlanWorkspace::walk(int root, int target) {
  SURFNET_EXPECTS(target >= 0 &&
                  static_cast<std::size_t>(target) < tree_slot_.size());
  const Label* label = tree(root);
  if (target != root && label[target].parent < 0) return nullptr;
  leg_.clear();
  for (int v = target; v != root; v = label[v].parent) leg_.push_back(v);
  return label;
}

bool PlanWorkspace::extend(int root, int target, std::uint64_t seen,
                           std::uint64_t stamp, double limit,
                           Prefix& prefix) {
  const Label* label = walk(root, target);
  if (!label) return false;
  // Fiber noise is never negative, so once a prefix reaches `limit` the
  // whole composite does.
  for (std::size_t i = leg_.size(); i-- > 0;) {
    const int v = leg_[i];
    std::uint64_t& mark = mark_[static_cast<std::size_t>(v)];
    if (mark == seen || mark == stamp) return false;
    mark = stamp;
    prefix.mu += label[v].hop;
    if (prefix.mu >= limit) return false;
    if (v != target && topology_->is_server(v)) ++prefix.servers;
  }
  return true;
}

void PlanWorkspace::append(int root, int target, std::vector<int>& path) {
  const Label* label = walk(root, target);
  SURFNET_ASSERT(label, "append: leg %d..%d unreachable", root, target);
  path.insert(path.end(), leg_.rbegin(), leg_.rend());
}

namespace {

/// What Eq. (6) grants a route: its corrections and code distance.
struct Grant {
  int corrections = 0;
  int distance = 0;  ///< 0 = the configured code
};

/// The normalized Eq. (6) bounds on a route of noise mu_total that passes
/// `servers` servers: schedule as many corrections as the noise budget
/// allows, or nullopt when the residual noise exceeds the thresholds.
std::optional<Grant> grant(const RoutingParams& params, double mu_total,
                           int servers) {
  // Schedule as many corrections as the lower noise bound allows
  // (Eq. 6: core noise after corrections must stay >= 0).
  const int ec_count = std::min(servers, params.max_corrections(mu_total));

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
  return Grant{ec_count, distance};
}

/// The planned code on `path`: its first `g.corrections` transit servers
/// correct.
PlannedCode planned(const Topology& topology, std::vector<int> path,
                    const Grant& g) {
  PlannedCode plan;
  for (std::size_t i = 1; i + 1 < path.size() &&
                          static_cast<int>(plan.ec_servers.size()) <
                              g.corrections;
       ++i)
    if (topology.is_server(path[i])) plan.ec_servers.push_back(path[i]);
  plan.path = std::move(path);
  plan.distance = g.distance;
  return plan;
}

}  // namespace

std::optional<PlannedCode> check_path(const Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path) {
  int servers = 0;
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    servers += topology.is_server(path[i]) ? 1 : 0;
  const auto g = grant(params, netsim::path_noise(topology, path), servers);
  if (!g) return std::nullopt;
  return planned(topology, path, *g);
}

bool min_noise_route(const Topology& topology, const CapacityTracker& tracker,
                     const CodeDemand& demand, int src, int dst,
                     PlanWorkspace& ws, std::vector<int>& path) {
  ws.bind(topology, tracker, demand);
  if (!ws.walk(src, dst)) return false;
  path.assign(1, src);
  path.insert(path.end(), ws.leg_.rbegin(), ws.leg_.rend());
  return true;
}

std::optional<PlannedCode> plan_code(const Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst, PlanWorkspace& ws) {
  SURFNET_EXPECTS(src >= 0 && src < topology.num_nodes() && dst >= 0 &&
                      dst < topology.num_nodes(),
                  "plan_code: endpoints %d, %d outside [0, %d)", src, dst,
                  topology.num_nodes());
  ws.bind(topology, tracker, params.demand());
  // The route src..server..other..dst from the trees; -1 skips a stop.
  const auto route = [&](int server, int other) {
    std::vector<int> path{src};
    int from = src;
    for (const int to : {server, other, dst}) {
      if (to < 0) continue;
      ws.append(from, to, path);
      from = to;
    }
    return path;
  };

  const double inf = std::numeric_limits<double>::infinity();
  PlanWorkspace::Prefix direct;
  const std::uint64_t stamp = ++ws.stamp_;
  if (ws.extend(src, dst, stamp, stamp, inf, direct)) {
    if (const auto g = grant(params, direct.mu, direct.servers))
      return planned(topology, route(-1, -1), *g);
  }
  // The minimum-noise route may fail the thresholds simply because it
  // passes too few servers: detour through one server — or an ordered pair
  // of servers — (the hierarchical equivalent of the LP routing its flow
  // through EC sites) and keep the lowest-noise feasible composite. The
  // composites are folded from the trees leg by leg, per-node stamps
  // reject a repeated node, and only a new best is built.
  std::optional<PlannedCode> best;
  double best_mu = inf;
  const auto consider = [&](const PlanWorkspace::Prefix& whole, int server,
                            int other) {
    if (const auto g = grant(params, whole.mu, whole.servers)) {
      best = planned(topology, route(server, other), *g);
      best_mu = whole.mu;
    }
  };
  for (const int server : ws.servers_) {
    if (server == src || server == dst) continue;
    // src and the first leg carry `first`; each continuation its own stamp.
    const std::uint64_t first = ++ws.stamp_;
    ws.mark_[static_cast<std::size_t>(src)] = first;
    PlanWorkspace::Prefix to_server;
    if (!ws.extend(src, server, first, first, best_mu, to_server)) continue;
    ++to_server.servers;  // a junction server is a transit node
    PlanWorkspace::Prefix whole = to_server;
    if (ws.extend(server, dst, first, ++ws.stamp_, best_mu, whole))
      consider(whole, server, -1);
    for (const int other : ws.servers_) {
      if (other == server || other == src || other == dst) continue;
      const std::uint64_t second = ++ws.stamp_;
      whole = to_server;
      if (!ws.extend(server, other, first, second, best_mu, whole)) continue;
      ++whole.servers;
      if (ws.extend(other, dst, first, second, best_mu, whole))
        consider(whole, server, other);
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
