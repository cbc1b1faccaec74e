#include "netsim/topology.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace surfnet::netsim {

Topology::Topology(std::vector<Node> nodes, std::vector<Fiber> fibers)
    : nodes_(std::move(nodes)), fibers_(std::move(fibers)) {
  for (const auto& n : nodes_)
    if (n.storage_capacity < 0)
      throw std::invalid_argument("node storage capacity negative");
  for (const auto& f : fibers_) {
    if (f.a < 0 || f.b < 0 || f.a >= num_nodes() || f.b >= num_nodes())
      throw std::invalid_argument("fiber endpoint out of range");
    if (f.a == f.b) throw std::invalid_argument("self-loop fiber");
    // Every comparison with NaN is false, so NaN fails here too.
    if (!(f.fidelity >= 0.0 && f.fidelity <= 1.0))
      throw std::invalid_argument("fiber fidelity outside [0, 1]");
    if (f.entanglement_capacity < 0)
      throw std::invalid_argument("fiber entanglement capacity negative");
  }
  build_index();
}

void Topology::build_index() {
  offsets_.assign(nodes_.size() + 1, 0);
  for (const auto& f : fibers_) {
    ++offsets_[static_cast<std::size_t>(f.a) + 1];
    ++offsets_[static_cast<std::size_t>(f.b) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i)
    offsets_[i] += offsets_[i - 1];
  incidence_.resize(offsets_.back());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t e = 0; e < fibers_.size(); ++e) {
    incidence_[cursor[static_cast<std::size_t>(fibers_[e].a)]++] =
        static_cast<int>(e);
    incidence_[cursor[static_cast<std::size_t>(fibers_[e].b)]++] =
        static_cast<int>(e);
  }
}

int Topology::other_end(int fiber_id, int v) const {
  const auto& f = fiber(fiber_id);
  if (f.a == v) return f.b;
  if (f.b == v) return f.a;
  throw std::logic_error("other_end: node not on fiber");
}

int Topology::fiber_between(int u, int v) const {
  for (int e : incident(u))
    if (other_end(e, u) == v) return e;
  return -1;
}

double Topology::fiber_noise(int e) const {
  const double gamma = std::max(fiber(e).fidelity, 1e-9);
  return std::log(1.0 / gamma);
}

std::vector<int> Topology::users() const {
  std::vector<int> out;
  for (int v = 0; v < num_nodes(); ++v)
    if (is_user(v)) out.push_back(v);
  return out;
}

std::vector<int> Topology::servers() const {
  std::vector<int> out;
  for (int v = 0; v < num_nodes(); ++v)
    if (is_server(v)) out.push_back(v);
  return out;
}

std::vector<int> Topology::switches_and_servers() const {
  std::vector<int> out;
  for (int v = 0; v < num_nodes(); ++v)
    if (is_switch_or_server(v)) out.push_back(v);
  return out;
}

bool Topology::connected() const {
  if (num_nodes() == 0) return true;
  std::vector<char> seen(static_cast<std::size_t>(num_nodes()), 0);
  std::vector<int> stack{0};
  seen[0] = 1;
  int count = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int e : incident(v)) {
      const int u = other_end(e, v);
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++count;
        stack.push_back(u);
      }
    }
  }
  return count == num_nodes();
}

namespace {

/// The fidelity and capacity fields TopologySpec and GridSpec share: throws
/// std::invalid_argument naming `spec_name` and the first bad field.
template <typename Spec>
void check_link_fields(const char* spec_name, const Spec& spec) {
  const auto require = [spec_name](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string(spec_name) + ": " + what);
  };
  // Every comparison with NaN is false, so NaN fails the fidelity checks.
  require(spec.fidelity_lo >= 0.0 && spec.fidelity_lo <= 1.0,
          "fidelity_lo must be in [0, 1]");
  require(spec.fidelity_hi >= 0.0 && spec.fidelity_hi <= 1.0,
          "fidelity_hi must be in [0, 1]");
  require(spec.fidelity_lo <= spec.fidelity_hi,
          "fidelity_lo must be <= fidelity_hi");
  require(spec.storage_capacity >= 0, "storage_capacity must be >= 0");
  require(spec.entanglement_capacity >= 0,
          "entanglement_capacity must be >= 0");
}

}  // namespace

Topology make_random_topology(const TopologySpec& spec, util::Rng& rng) {
  check_link_fields("TopologySpec", spec);
  if (spec.num_nodes < 3)
    throw std::invalid_argument("topology needs at least 3 nodes");
  const int m = std::max(1, spec.attach_edges);
  if (spec.num_servers + spec.num_switches >= spec.num_nodes)
    throw std::invalid_argument("not enough nodes left to be users");

  // Barabasi-Albert: start from a small clique of m+1 nodes, then attach
  // each new node to m distinct existing nodes chosen proportionally to
  // degree (implemented by sampling the endpoint multiset).
  const int seed_nodes = m + 1;
  std::vector<std::pair<int, int>> edges;
  std::vector<int> endpoint_pool;  // each edge contributes both endpoints
  for (int i = 0; i < seed_nodes; ++i)
    for (int j = i + 1; j < seed_nodes; ++j) {
      edges.emplace_back(i, j);
      endpoint_pool.push_back(i);
      endpoint_pool.push_back(j);
    }
  for (int v = seed_nodes; v < spec.num_nodes; ++v) {
    std::vector<int> targets;
    int guard = 0;
    while (static_cast<int>(targets.size()) < m) {
      if (++guard > 10000)
        throw std::logic_error("BA attachment failed to find targets");
      const int t =
          endpoint_pool[rng.below(endpoint_pool.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end())
        targets.push_back(t);
    }
    for (int t : targets) {
      edges.emplace_back(v, t);
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(t);
    }
  }

  // Role assignment by degree: top num_servers become servers, the next
  // num_switches become switches, the rest are users.
  std::vector<int> degree(static_cast<std::size_t>(spec.num_nodes), 0);
  for (const auto& [a, b] : edges) {
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
  }
  std::vector<int> order(static_cast<std::size_t>(spec.num_nodes));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return degree[static_cast<std::size_t>(x)] >
           degree[static_cast<std::size_t>(y)];
  });

  std::vector<Node> nodes(static_cast<std::size_t>(spec.num_nodes));
  for (int rank = 0; rank < spec.num_nodes; ++rank) {
    Node& node = nodes[static_cast<std::size_t>(order[
        static_cast<std::size_t>(rank)])];
    if (rank < spec.num_servers) {
      node.role = NodeRole::Server;
      node.storage_capacity = spec.storage_capacity;
    } else if (rank < spec.num_servers + spec.num_switches) {
      node.role = NodeRole::Switch;
      node.storage_capacity = spec.storage_capacity;
    } else {
      node.role = NodeRole::User;
      node.storage_capacity = 0;
    }
  }

  std::vector<Fiber> fibers;
  fibers.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    Fiber f;
    f.a = a;
    f.b = b;
    f.fidelity = rng.uniform(spec.fidelity_lo, spec.fidelity_hi);
    f.entanglement_capacity = spec.entanglement_capacity;
    fibers.push_back(f);
  }
  return Topology(std::move(nodes), std::move(fibers));
}

Topology make_grid_topology(const GridSpec& spec, util::Rng& rng) {
  check_link_fields("GridSpec", spec);
  if (spec.width < 3 || spec.height < 3)
    throw std::invalid_argument("grid topology: need width, height >= 3");
  if (spec.server_stride < 1)
    throw std::invalid_argument("grid topology: server_stride must be >= 1");

  const auto id = [&](int r, int c) { return r * spec.width + c; };
  std::vector<Node> nodes(
      static_cast<std::size_t>(spec.width * spec.height));
  int interior_rank = 0;
  for (int r = 0; r < spec.height; ++r) {
    for (int c = 0; c < spec.width; ++c) {
      Node& node = nodes[static_cast<std::size_t>(id(r, c))];
      const bool boundary =
          r == 0 || c == 0 || r == spec.height - 1 || c == spec.width - 1;
      if (boundary) {
        node.role = NodeRole::User;
        node.storage_capacity = 0;
        continue;
      }
      node.role = (interior_rank % spec.server_stride == 0)
                      ? NodeRole::Server
                      : NodeRole::Switch;
      node.storage_capacity = spec.storage_capacity;
      ++interior_rank;
    }
  }

  std::vector<Fiber> fibers;
  fibers.reserve(static_cast<std::size_t>(2 * spec.width * spec.height));
  const auto link = [&](int u, int v) {
    Fiber f;
    f.a = u;
    f.b = v;
    f.fidelity = rng.uniform(spec.fidelity_lo, spec.fidelity_hi);
    f.entanglement_capacity = spec.entanglement_capacity;
    fibers.push_back(f);
  };
  for (int r = 0; r < spec.height; ++r)
    for (int c = 0; c < spec.width; ++c) {
      if (c + 1 < spec.width) link(id(r, c), id(r, c + 1));
      if (r + 1 < spec.height) link(id(r, c), id(r + 1, c));
    }
  return Topology(std::move(nodes), std::move(fibers));
}

}  // namespace surfnet::netsim
