#pragma once

// Quantum network topology (paper Sec. IV-A / VI-B): users, switches and
// servers interconnected by optical fibers, generated with the
// Barabasi-Albert preferential-attachment model (> 20 nodes); the most
// connected nodes become servers and switches. Every fiber carries the two
// SurfNet channels and is labelled with a fidelity gamma in [0, 1].

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace surfnet::netsim {

enum class NodeRole { User, Switch, Server };

struct Node {
  NodeRole role = NodeRole::User;
  int storage_capacity = 0;  ///< eta_r: qubits a switch/server can hold
};

struct Fiber {
  int a = -1;
  int b = -1;
  double fidelity = 1.0;          ///< gamma in [0, 1]
  int entanglement_capacity = 0;  ///< eta_e: prepared pairs per round
};

class Topology {
 public:
  Topology() = default;
  /// Throws std::invalid_argument on a fiber endpoint out of range, a
  /// self-loop, a fidelity outside [0, 1] (NaN included), or a negative
  /// storage or entanglement capacity.
  Topology(std::vector<Node> nodes, std::vector<Fiber> fibers);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_fibers() const { return static_cast<int>(fibers_.size()); }

  const Node& node(int v) const { return nodes_[static_cast<std::size_t>(v)]; }
  Node& node(int v) { return nodes_[static_cast<std::size_t>(v)]; }
  const Fiber& fiber(int e) const {
    return fibers_[static_cast<std::size_t>(e)];
  }
  Fiber& fiber(int e) { return fibers_[static_cast<std::size_t>(e)]; }

  bool is_user(int v) const { return node(v).role == NodeRole::User; }
  bool is_switch_or_server(int v) const { return !is_user(v); }
  bool is_server(int v) const { return node(v).role == NodeRole::Server; }

  /// Fiber ids incident to node v.
  std::span<const int> incident(int v) const {
    return {incidence_.data() + offsets_[static_cast<std::size_t>(v)],
            offsets_[static_cast<std::size_t>(v) + 1] -
                offsets_[static_cast<std::size_t>(v)]};
  }

  int other_end(int fiber_id, int v) const;

  /// Fiber between u and v, or -1.
  int fiber_between(int u, int v) const;

  /// Noise of a fiber: mu = ln(1 / gamma) (paper Sec. V-A).
  double fiber_noise(int e) const;

  std::vector<int> users() const;
  std::vector<int> servers() const;
  std::vector<int> switches_and_servers() const;

  /// True when every node can reach every other node.
  bool connected() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Fiber> fibers_;
  std::vector<std::size_t> offsets_;
  std::vector<int> incidence_;

  void build_index();
};

/// Parameters for random scenario generation (paper Sec. VI-A/B).
struct TopologySpec {
  int num_nodes = 24;        ///< > 20 per the paper
  int attach_edges = 2;      ///< Barabasi-Albert m
  int num_servers = 3;       ///< most connected nodes
  int num_switches = 8;      ///< next most connected
  int storage_capacity = 40; ///< eta_r for switches/servers
  int entanglement_capacity = 8;  ///< eta_e per fiber
  double fidelity_lo = 0.75; ///< good connections: [0.75, 1]
  double fidelity_hi = 1.0;  ///< poor connections use lo = 0.5
};

/// Generate a random connected Barabasi-Albert topology with roles assigned
/// by degree (servers = highest degree) and i.i.d. fiber fidelities.
/// Throws std::invalid_argument naming the first TopologySpec field out of
/// range: fidelity_lo and fidelity_hi in [0, 1] with lo <= hi, and
/// storage_capacity and entanglement_capacity >= 0.
Topology make_random_topology(const TopologySpec& spec, util::Rng& rng);

/// Parameters for the regular width x height grid used by the scaling
/// benchmarks: boundary nodes are users, interior nodes switches, and every
/// `server_stride`-th interior node is promoted to a server. Fibers connect
/// 4-neighbors with i.i.d. fidelities in [fidelity_lo, fidelity_hi].
struct GridSpec {
  int width = 4;              ///< >= 3 (need at least one interior node)
  int height = 4;             ///< >= 3
  int server_stride = 3;      ///< promote every k-th interior node
  int storage_capacity = 60;  ///< eta_r for switches/servers
  int entanglement_capacity = 16;  ///< eta_e per fiber
  double fidelity_lo = 0.85;
  double fidelity_hi = 1.0;
};

/// Deterministic-shape grid topology; only fidelities draw from `rng`.
/// Throws std::invalid_argument on width or height below 3, a
/// server_stride below 1, or (naming the GridSpec field) the fidelity and
/// capacity ranges make_random_topology requires.
Topology make_grid_topology(const GridSpec& spec, util::Rng& rng);

}  // namespace surfnet::netsim
