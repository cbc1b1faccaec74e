#include "netsim/schedule.h"

#include <stdexcept>

namespace surfnet::netsim {

std::vector<Request> random_requests(const Topology& topology, int count,
                                     int max_codes, util::Rng& rng) {
  if (count < 0)
    throw std::invalid_argument("random_requests: count must be >= 0");
  const auto users = topology.users();
  if (users.size() < 2)
    throw std::invalid_argument("random_requests: need at least two users");
  if (max_codes < 1)
    throw std::invalid_argument("random_requests: max_codes must be >= 1");
  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Request r;
    r.src = users[rng.below(users.size())];
    do {
      r.dst = users[rng.below(users.size())];
    } while (r.dst == r.src);
    r.codes = static_cast<int>(rng.between(1, max_codes));
    requests.push_back(r);
  }
  return requests;
}

void Schedule::add_code(int request_index, const std::vector<int>& core_path,
                        const std::vector<int>& support_path,
                        const std::vector<int>& ec_servers,
                        int code_distance) {
  if (!scheduled.empty()) {
    ScheduledRequest& last = scheduled.back();
    if (last.request_index == request_index &&
        last.code_distance == code_distance && last.core_path == core_path &&
        last.support_path == support_path && last.ec_servers == ec_servers) {
      ++last.codes;
      return;
    }
  }
  scheduled.push_back(ScheduledRequest{request_index, 1, core_path,
                                       support_path, ec_servers,
                                       code_distance});
}

int requested_codes(const std::vector<Request>& requests) {
  int total = 0;
  for (const auto& r : requests) {
    if (r.codes < 0)
      throw std::invalid_argument("Request::codes must be >= 0");
    total += r.codes;
  }
  return total;
}

}  // namespace surfnet::netsim
