#include "routing/validate.h"

#include <cmath>
#include <cstddef>

#include "netsim/channel.h"
#include "util/contracts.h"

namespace surfnet::routing {

namespace {

constexpr double kCapacityTol = 1e-6;

/// Walk validity: nonempty src..dst sequence over existing fibers.
void check_path(const netsim::Topology& topology, const std::vector<int>& path,
                int src, int dst, const char* which, int entry) {
  SURFNET_ASSERT(path.size() >= 2, "entry %d: %s path has %zu nodes", entry,
                 which, path.size());
  SURFNET_ASSERT(path.front() == src && path.back() == dst,
                 "entry %d: %s path runs %d..%d, request is %d..%d", entry,
                 which, path.front(), path.back(), src, dst);
  for (const int v : path)
    SURFNET_ASSERT(v >= 0 && v < topology.num_nodes(),
                   "entry %d: %s path node %d outside [0, %d)", entry, which,
                   v, topology.num_nodes());
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    SURFNET_ASSERT(topology.fiber_between(path[i], path[i + 1]) >= 0,
                   "entry %d: %s path hop %d-%d has no fiber", entry, which,
                   path[i], path[i + 1]);
}

/// EC servers must appear as interior nodes of `path`, in path order.
void check_ec_on_path(const netsim::Topology& topology,
                      const std::vector<int>& ec_servers,
                      const std::vector<int>& path, const char* which,
                      int entry) {
  std::size_t cursor = 1;
  for (const int server : ec_servers) {
    SURFNET_ASSERT(topology.is_server(server),
                   "entry %d: EC node %d is not a server", entry, server);
    bool found = false;
    while (cursor + 1 < path.size()) {
      if (path[cursor] == server) {
        found = true;
        ++cursor;
        break;
      }
      ++cursor;
    }
    SURFNET_ASSERT(found,
                   "entry %d: EC server %d not on the %s path (in order)",
                   entry, server, which);
  }
}

}  // namespace

void check_schedule_invariants(const netsim::Topology& topology,
                               const std::vector<netsim::Request>& requests,
                               const RoutingParams& params,
                               const netsim::Schedule& schedule) {
  int requested = 0;
  for (const auto& request : requests) requested += request.codes;
  SURFNET_ASSERT(schedule.requested_codes == requested,
                 "schedule says %d requested codes, requests sum to %d",
                 schedule.requested_codes, requested);

  std::vector<int> scheduled_per_request(requests.size(), 0);
  std::vector<double> node_demand(static_cast<std::size_t>(topology.num_nodes()),
                                  0.0);
  std::vector<double> pair_demand(static_cast<std::size_t>(topology.num_fibers()),
                                  0.0);

  int entry = 0;
  for (const auto& s : schedule.scheduled) {
    SURFNET_ASSERT(s.request_index >= 0 &&
                       s.request_index < static_cast<int>(requests.size()),
                   "entry %d: request index %d outside [0, %zu)", entry,
                   s.request_index, requests.size());
    SURFNET_ASSERT(s.codes >= 1, "entry %d: %d codes", entry, s.codes);
    scheduled_per_request[static_cast<std::size_t>(s.request_index)] += s.codes;

    const netsim::Request& request =
        requests[static_cast<std::size_t>(s.request_index)];
    check_path(topology, s.support_path, request.src, request.dst, "support",
               entry);
    const bool has_core = !s.core_path.empty();
    if (has_core)
      check_path(topology, s.core_path, request.src, request.dst, "core",
                 entry);

    // Server coupling (Eq. (4)): EC needs the complete code, so a chosen
    // server must lie on both paths in the same order; the EC count obeys
    // the Eq. (6) lower bound on the primary path's noise.
    check_ec_on_path(topology, s.ec_servers, s.support_path, "support", entry);
    if (has_core)
      check_ec_on_path(topology, s.ec_servers, s.core_path, "core", entry);
    if (params.ec_reduction > 0.0) {
      const double mu = netsim::path_noise(
          topology, has_core ? s.core_path : s.support_path);
      const int max_ec =
          static_cast<int>(std::floor(mu / params.ec_reduction + 1e-9));
      SURFNET_ASSERT(static_cast<int>(s.ec_servers.size()) <= max_ec,
                     "entry %d: %zu EC servers, noise %g allows %d", entry,
                     s.ec_servers.size(), mu, max_ec);
    }

    // Accumulate capacity demand (Eq. (5)), mirroring CapacityTracker:
    // Support qubits consume storage along the support path, Core qubits
    // storage along the core path and entangled pairs on its fibers; codes
    // of non-default distance scale both demands.
    double support_unit =
        params.dual_channel ? params.support_qubits : params.total_qubits();
    double core_unit = params.core_qubits;
    if (s.code_distance > 0) {
      core_unit = RoutingParams::core_qubits_for(s.code_distance);
      support_unit = RoutingParams::total_qubits_for(s.code_distance) -
                     (has_core ? core_unit : 0.0);
    }
    for (std::size_t i = 1; i + 1 < s.support_path.size(); ++i)
      node_demand[static_cast<std::size_t>(s.support_path[i])] +=
          support_unit * s.codes;
    if (has_core) {
      for (std::size_t i = 1; i + 1 < s.core_path.size(); ++i)
        node_demand[static_cast<std::size_t>(s.core_path[i])] +=
            core_unit * s.codes;
      if (params.dual_channel)
        for (std::size_t i = 0; i + 1 < s.core_path.size(); ++i)
          pair_demand[static_cast<std::size_t>(
              topology.fiber_between(s.core_path[i], s.core_path[i + 1]))] +=
              core_unit * s.codes;
    }
    ++entry;
  }

  for (std::size_t k = 0; k < requests.size(); ++k)
    SURFNET_ASSERT(scheduled_per_request[k] <= requests[k].codes,
                   "request %zu: %d codes scheduled of %d requested", k,
                   scheduled_per_request[k], requests[k].codes);

  const double scale = params.storage_scale();
  for (int v = 0; v < topology.num_nodes(); ++v)
    SURFNET_ASSERT(node_demand[static_cast<std::size_t>(v)] <=
                       scale * topology.node(v).storage_capacity + kCapacityTol,
                   "node %d stores %g of %g qubits", v,
                   node_demand[static_cast<std::size_t>(v)],
                   scale * topology.node(v).storage_capacity);
  for (int e = 0; e < topology.num_fibers(); ++e)
    SURFNET_ASSERT(pair_demand[static_cast<std::size_t>(e)] <=
                       topology.fiber(e).entanglement_capacity + kCapacityTol,
                   "fiber %d carries %g of %d pairs", e,
                   pair_demand[static_cast<std::size_t>(e)],
                   topology.fiber(e).entanglement_capacity);
}

}  // namespace surfnet::routing
