#pragma once

// Communication requests and routing schedules — the interface between the
// routing protocol (offline scheduling, paper Sec. V-A) and the network
// simulator (online execution, Sec. V-B).

#include <vector>

#include "netsim/topology.h"
#include "util/rng.h"

namespace surfnet::netsim {

/// A communication request k = [(s_k, d_k), i_k].
struct Request {
  int src = -1;
  int dst = -1;
  int codes = 1;  ///< i_k: number of surface codes (messages) to transfer
};

/// Draw `count` requests between distinct random users, each with
/// 1..max_codes messages. Throws std::invalid_argument on a negative
/// count, max_codes < 1, or fewer than two users.
std::vector<Request> random_requests(const Topology& topology, int count,
                                     int max_codes, util::Rng& rng);

/// Sum of the requests' codes: a schedule's requested_codes. Every router
/// starts from it, so it throws std::invalid_argument naming
/// Request::codes when one is negative.
int requested_codes(const std::vector<Request>& requests);

/// The routing protocol's decision for one request.
struct ScheduledRequest {
  int request_index = -1;
  int codes = 0;  ///< Y_k: scheduled surface codes (<= request.codes)
  /// Node sequences src..dst. The Core path is used by the
  /// entanglement-based channel, the Support path by the plain channel;
  /// they may differ, but every EC server must lie on both (in order).
  std::vector<int> core_path;
  std::vector<int> support_path;
  /// Servers where error correction is scheduled, in path order.
  std::vector<int> ec_servers;
  /// Surface-code distance for this request's codes; 0 uses the
  /// simulation default. Set by the adaptive-code-size router extension.
  int code_distance = 0;
};

struct Schedule {
  std::vector<ScheduledRequest> scheduled;
  int requested_codes = 0;  ///< sum over all requests of i_k

  /// Schedule one more code of request `request_index`: it joins the last
  /// entry when that entry is the same request on the same paths, EC
  /// servers and distance, and starts a new entry otherwise. (The slot
  /// loop runs one entry's codes one after another, so merging decides
  /// the order codes launch in.)
  void add_code(int request_index, const std::vector<int>& core_path,
                const std::vector<int>& support_path,
                const std::vector<int>& ec_servers, int code_distance = 0);

  int scheduled_codes() const {
    int total = 0;
    for (const auto& s : scheduled) total += s.codes;
    return total;
  }
  /// Paper Sec. VI-C: executed / requested communications.
  double throughput() const {
    return requested_codes > 0
               ? static_cast<double>(scheduled_codes()) / requested_codes
               : 0.0;
  }
};

}  // namespace surfnet::netsim
