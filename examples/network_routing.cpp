// End-to-end SurfNet experiment: generate a random Barabasi-Albert quantum
// network, schedule a batch of communication requests with the LP routing
// protocol (paper Eqs. 1-6 + rounding), execute the schedule on the
// round-based simulator, and print the resulting routes and metrics.
//
//   ./network_routing [seed] [num_requests]

#include <cstdio>
#include <cstdlib>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/simulator.h"
#include "routing/router.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace surfnet;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 2024;
  const int num_requests = argc > 2 ? std::atoi(argv[2]) : 6;

  auto params = core::make_scenario(core::FacilityLevel::Sufficient,
                                    core::ConnectionQuality::Good);
  params.num_requests = num_requests;

  util::Rng rng(seed);
  const auto topology = netsim::make_random_topology(params.topology, rng);
  std::printf("network: %d nodes (%zu servers, %zu switches, %zu users), "
              "%d fibers\n",
              topology.num_nodes(), topology.servers().size(),
              topology.switches_and_servers().size() -
                  topology.servers().size(),
              topology.users().size(), topology.num_fibers());

  const auto requests = netsim::random_requests(
      topology, params.num_requests, params.max_codes_per_request, rng);
  for (std::size_t k = 0; k < requests.size(); ++k)
    std::printf("request %zu: user %d -> user %d, %d surface code(s)\n", k,
                requests[k].src, requests[k].dst, requests[k].codes);

  const auto routed =
      routing::route(topology, requests, params.routing, rng);
  std::printf("\nLP relaxation objective (upper bound on executed codes): "
              "%.2f\n", routed.lp_objective);
  std::printf("scheduled %d of %d requested codes (throughput %.2f)\n\n",
              routed.schedule.scheduled_codes(),
              routed.schedule.requested_codes,
              routed.schedule.throughput());

  for (const auto& s : routed.schedule.scheduled) {
    std::printf("request %d x%d  support path:", s.request_index, s.codes);
    for (int v : s.support_path) std::printf(" %d", v);
    if (!s.core_path.empty()) {
      std::printf("   core path:");
      for (int v : s.core_path) std::printf(" %d", v);
    }
    std::printf("   EC at:");
    if (s.ec_servers.empty()) std::printf(" (none)");
    for (int v : s.ec_servers) std::printf(" %d", v);
    std::printf("\n");
  }

  const decoder::SurfNetDecoder decoder;
  const auto result = netsim::simulate_surfnet(
      topology, routed.schedule, params.simulation, decoder, rng);
  std::printf("\nexecution: %d/%d codes delivered, fidelity %.3f, "
              "average latency %.1f slots\n",
              result.codes_delivered, result.codes_scheduled,
              result.fidelity(), result.avg_latency());
  return 0;
}
