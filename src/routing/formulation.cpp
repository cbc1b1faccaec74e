#include "routing/formulation.h"

#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

namespace surfnet::routing {

using netsim::Request;
using netsim::Topology;

void RoutingParams::validate() const {
  // Every comparison with NaN is false, so NaN fails each check.
  const auto require = [](double value, const char* field) {
    if (!(std::isfinite(value) && value >= 0.0))
      throw std::invalid_argument(std::string("RoutingParams: ") + field +
                                  " must be finite and >= 0");
  };
  require(ec_reduction, "ec_reduction");
  require(core_noise_threshold, "core_noise_threshold");
  require(total_noise_threshold, "total_noise_threshold");
}

CodeDemand RoutingParams::demand(int distance) const {
  const int core = distance > 0 ? core_qubits_for(distance) : core_qubits;
  const int total = distance > 0 ? total_qubits_for(distance) : total_qubits();
  if (!dual_channel) return {static_cast<double>(total), 0.0, 0.0};
  return {static_cast<double>(total - core), static_cast<double>(core),
          static_cast<double>(core)};
}

int RoutingParams::max_corrections(double mu) const {
  return ec_reduction > 0.0 ? static_cast<int>(std::floor(mu / ec_reduction))
                            : 0;
}

RoutingFormulation::RoutingFormulation(const Topology& topology,
                                       const std::vector<Request>& requests,
                                       const RoutingParams& params)
    : topology_(&topology), params_(params), servers_(topology.servers()) {
  params_.validate();
  if (params_.core_qubits <= 0 || params_.support_qubits <= 0)
    throw std::invalid_argument("routing: code sizes must be positive");
  build_arc_lists();
  build(requests);
}

void RoutingFormulation::build_arc_lists() {
  // Each incident fiber gives a node one in-arc and one out-arc; fibers are
  // incident in ascending id, so both lists come out in ascending arc id.
  const Topology& topo = *topology_;
  arc_start_.assign(static_cast<std::size_t>(topo.num_nodes()) + 1, 0);
  in_arcs_.clear();
  out_arcs_.clear();
  for (int v = 0; v < topo.num_nodes(); ++v) {
    for (const int e : topo.incident(v)) {
      const int into = edge_head(2 * e) == v ? 2 * e : 2 * e + 1;
      in_arcs_.push_back(into);
      out_arcs_.push_back(into ^ 1);  // the same fiber's other direction
    }
    arc_start_[static_cast<std::size_t>(v) + 1] =
        static_cast<int>(in_arcs_.size());
  }
}

int RoutingFormulation::edge_tail(int de) const {
  const auto& f = topology_->fiber(edge_fiber(de));
  return (de % 2 == 0) ? f.a : f.b;
}

int RoutingFormulation::edge_head(int de) const {
  const auto& f = topology_->fiber(edge_fiber(de));
  return (de % 2 == 0) ? f.b : f.a;
}

void RoutingFormulation::set_storage_capacity(int node, double capacity) {
  const int row = storage_row(node);
  if (row >= 0) lp_.set_rhs(row, capacity);
}

void RoutingFormulation::set_entanglement_capacity(int fiber,
                                                   double capacity) {
  const int row = entanglement_row(fiber);
  if (row >= 0) lp_.set_rhs(row, capacity);
}

std::vector<std::pair<int, int>> RoutingFormulation::crash_hint() const {
  const Topology& topo = *topology_;
  const auto nodes = static_cast<std::size_t>(topo.num_nodes());
  std::vector<std::pair<int, int>> hint;
  std::vector<double> dist;
  std::vector<int> in_arc;
  using Item = std::pair<double, int>;  // (noise from src, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t k = 0; k < vars_.size(); ++k) {
    const VarIndex& v = vars_[k];
    const RowIndex& rows = rows_[k];
    dist.assign(nodes, std::numeric_limits<double>::infinity());
    in_arc.assign(nodes, -1);
    dist[static_cast<std::size_t>(rows.src)] = 0.0;
    heap.push({0.0, rows.src});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[static_cast<std::size_t>(u)]) continue;
      for (const int de : out_arcs(u)) {
        if (v.b[static_cast<std::size_t>(de)] < 0) continue;
        const auto w = static_cast<std::size_t>(edge_head(de));
        const double nd =
            d + fiber_noise_[static_cast<std::size_t>(edge_fiber(de))];
        if (nd < dist[w]) {
          dist[w] = nd;
          in_arc[w] = de;
          heap.push({nd, static_cast<int>(w)});
        }
      }
    }

    // A reached node is the destination or a switch/server with an in-arc
    // variable, so build() emitted a row for it on every channel.
    for (std::size_t node = 0; node < nodes; ++node) {
      const int de = in_arc[node];
      if (de < 0) continue;
      const auto sde = static_cast<std::size_t>(de);
      if (params_.dual_channel)
        hint.emplace_back(v.a[sde], rows.a_node[node]);
      hint.emplace_back(v.b[sde], rows.b_node[node]);
    }
    for (std::size_t r = 0; r < servers_.size(); ++r)
      if (in_arc[static_cast<std::size_t>(servers_[r])] >= 0)
        hint.emplace_back(v.x[r], rows.coupling[r]);
  }
  return hint;
}

void RoutingFormulation::build(const std::vector<Request>& requests) {
  const Topology& topo = *topology_;
  const int de_count = num_directed_edges();
  const int n = params_.core_qubits;
  const int m = params_.support_qubits;
  const int total_qubits = params_.total_qubits();

  storage_row_.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
  entanglement_row_.assign(static_cast<std::size_t>(topo.num_fibers()), -1);
  // Each fiber's noise is one std::log; the penalties, the Eq. (6) rows and
  // crash_hint() read it from here.
  fiber_noise_.resize(static_cast<std::size_t>(topo.num_fibers()));
  for (int e = 0; e < topo.num_fibers(); ++e)
    fiber_noise_[static_cast<std::size_t>(e)] = topo.fiber_noise(e);
  const std::vector<int> transit = topo.switches_and_servers();

  // Room for every variable, row and term without regrowing: per request a
  // Y, one variable per channel and directed edge at most and one x per
  // server; rows and terms are bounded once the variables are known.
  const int channels = params_.dual_channel ? 2 : 1;
  const auto num_requests = static_cast<int>(requests.size());
  const auto num_transit = static_cast<int>(transit.size());
  const auto num_servers = static_cast<int>(servers_.size());
  lp_.reserve_variables(num_requests *
                        (1 + channels * de_count + num_servers));

  // --- Variables (Eq. 2 bounds become variable upper bounds). ---
  vars_.resize(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& req = requests[k];
    if (req.src == req.dst || !topo.is_user(req.src) || !topo.is_user(req.dst))
      throw std::invalid_argument("routing: request endpoints must be "
                                  "distinct users");
    VarIndex& v = vars_[k];
    v.y = lp_.add_variable(1.0, req.codes);  // objective: max sum Y_k
    v.a.assign(static_cast<std::size_t>(de_count), -1);
    v.b.assign(static_cast<std::size_t>(de_count), -1);
    for (int de = 0; de < de_count; ++de) {
      const int tail = edge_tail(de);
      const int head = edge_head(de);
      // Eq. 3 line 1: no flow out of the destination or into the source;
      // transit through third-party users is physically meaningless.
      const bool tail_ok = (tail == req.src) || topo.is_switch_or_server(tail);
      const bool head_ok = (head == req.dst) || topo.is_switch_or_server(head);
      if (!tail_ok || !head_ok) continue;
      // Small negative objective on every flow unit-noise product: among
      // maximum-throughput solutions the LP then picks minimum-noise
      // routes (and aligned Core/Support paths).
      const double penalty =
          -kNoiseObjectiveWeight *
          fiber_noise_[static_cast<std::size_t>(edge_fiber(de))];
      if (params_.dual_channel)
        v.a[static_cast<std::size_t>(de)] = lp_.add_variable(penalty);
      v.b[static_cast<std::size_t>(de)] = lp_.add_variable(penalty);
    }
    v.x.assign(servers_.size(), -1);
    for (std::size_t r = 0; r < servers_.size(); ++r)
      v.x[r] = lp_.add_variable(0.0, req.codes);
  }

  // Per request: two flow equations and one noise row per channel (two
  // for Core), a conservation row per channel and transit node and a
  // coupling row per channel and server; then a storage row per transit
  // node and a pair row per fiber. A variable takes at most 8 terms: a
  // Core flow sits in two flow or conservation rows, one coupling, three
  // noise, one storage and one pair row.
  lp_.reserve_rows(num_requests * channels * (2 + num_transit + num_servers) +
                       num_requests * (params_.dual_channel ? 3 : 1) +
                       num_transit + topo.num_fibers(),
                   8 * lp_.num_vars());

  // --- Per-request constraints: Eqs. (3), (4), (6). Rows stream straight
  // into the problem's compressed form; nothing is buffered per row. ---
  rows_.resize(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& req = requests[k];
    const VarIndex& v = vars_[k];
    RowIndex& rows = rows_[k];
    rows.src = req.src;
    rows.a_node.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
    rows.b_node.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
    rows.coupling.assign(servers_.size(), -1);

    auto add_flow_equation = [&](std::span<const int> edges,
                                 const std::vector<int>& var_of_edge,
                                 double y_coeff) {
      lp_.begin_constraint(ConstraintType::Equal, 0.0);
      for (int de : edges) {
        const int var = var_of_edge[static_cast<std::size_t>(de)];
        if (var >= 0) lp_.add_term(var, 1.0);
      }
      lp_.add_term(v.y, y_coeff);
    };
    const auto dst = static_cast<std::size_t>(req.dst);

    // Eq. 3: inflow(dst) = outflow(src) = n*Y (Core) and m*Y (Support).
    if (params_.dual_channel) {
      rows.a_node[dst] = lp_.num_rows();
      add_flow_equation(in_arcs(req.dst), v.a, -static_cast<double>(n));
      add_flow_equation(out_arcs(req.src), v.a, -static_cast<double>(n));
      rows.b_node[dst] = lp_.num_rows();
      add_flow_equation(in_arcs(req.dst), v.b, -static_cast<double>(m));
      add_flow_equation(out_arcs(req.src), v.b, -static_cast<double>(m));
    } else {
      rows.b_node[dst] = lp_.num_rows();
      add_flow_equation(in_arcs(req.dst), v.b,
                        -static_cast<double>(total_qubits));
      add_flow_equation(out_arcs(req.src), v.b,
                        -static_cast<double>(total_qubits));
    }

    // Eq. 4: conservation at switches and servers; server EC coupling.
    for (int node : transit) {
      const auto in = in_arcs(node);
      const auto out = out_arcs(node);
      auto add_conservation = [&](const std::vector<int>& var_of_edge,
                                  std::vector<int>& node_row) {
        bool any = false;
        for (int de : in)
          if (var_of_edge[static_cast<std::size_t>(de)] >= 0) any = true;
        for (int de : out)
          if (var_of_edge[static_cast<std::size_t>(de)] >= 0) any = true;
        if (!any) return;
        node_row[static_cast<std::size_t>(node)] = lp_.num_rows();
        lp_.begin_constraint(ConstraintType::Equal, 0.0);
        for (int de : in) {
          const int var = var_of_edge[static_cast<std::size_t>(de)];
          if (var >= 0) lp_.add_term(var, 1.0);
        }
        for (int de : out) {
          const int var = var_of_edge[static_cast<std::size_t>(de)];
          if (var >= 0) lp_.add_term(var, -1.0);
        }
      };
      if (params_.dual_channel) add_conservation(v.a, rows.a_node);
      add_conservation(v.b, rows.b_node);
    }
    for (std::size_t r = 0; r < servers_.size(); ++r) {
      const int node = servers_[r];
      const auto in = in_arcs(node);
      rows.coupling[r] = lp_.num_rows();  // the first of the server's rows
      auto add_coupling = [&](const std::vector<int>& var_of_edge,
                              double qubits) {
        lp_.begin_constraint(ConstraintType::Equal, 0.0);
        for (int de : in) {
          const int var = var_of_edge[static_cast<std::size_t>(de)];
          if (var >= 0) lp_.add_term(var, 1.0);
        }
        lp_.add_term(v.x[r], -qubits);
      };
      if (params_.dual_channel) {
        add_coupling(v.a, static_cast<double>(n));
        add_coupling(v.b, static_cast<double>(m));
      } else {
        add_coupling(v.b, static_cast<double>(total_qubits));
      }
    }

    // Eq. 6: noise thresholds (normalized per code as in the paper's
    // worked example). Core: 0 <= (1/n) sum mu a - w sum x <= Wc * Y.
    // Whole code: (1/(n+m)) sum mu (a/2 + b) - w sum x <= W * Y.
    auto noise_terms = [&](const std::vector<int>& var_of_edge,
                           double scale) {
      for (int de = 0; de < de_count; ++de) {
        const int var = var_of_edge[static_cast<std::size_t>(de)];
        if (var < 0) continue;
        const double mu =
            fiber_noise_[static_cast<std::size_t>(edge_fiber(de))];
        if (mu > 0.0) lp_.add_term(var, scale * mu);
      }
    };
    auto ec_terms = [&] {
      for (std::size_t r = 0; r < servers_.size(); ++r)
        lp_.add_term(v.x[r], -params_.ec_reduction);
    };
    if (params_.dual_channel) {
      lp_.begin_constraint(ConstraintType::GreaterEqual, 0.0);
      noise_terms(v.a, 1.0 / n);  // >= 0: discourages consecutive servers
      ec_terms();
      lp_.begin_constraint(ConstraintType::LessEqual, 0.0);
      noise_terms(v.a, 1.0 / n);
      ec_terms();
      lp_.add_term(v.y, -params_.core_noise_threshold);
    }
    {
      lp_.begin_constraint(ConstraintType::LessEqual, 0.0);
      if (params_.dual_channel) {
        noise_terms(v.a, 0.5 / total_qubits);
        noise_terms(v.b, 1.0 / total_qubits);
      } else {
        noise_terms(v.b, 1.0 / total_qubits);
      }
      ec_terms();
      lp_.add_term(v.y, -params_.total_noise_threshold);
    }
  }

  // --- Shared capacity constraints: Eq. (5). ---
  const double capacity_scale = params_.storage_scale();
  for (int node : transit) {
    const auto in = in_arcs(node);
    bool any = false;
    for (int de : in) {
      for (const auto& v : vars_) {
        if (params_.dual_channel && v.a[static_cast<std::size_t>(de)] >= 0)
          any = true;
        if (v.b[static_cast<std::size_t>(de)] >= 0) any = true;
      }
    }
    if (!any) continue;
    storage_row_[static_cast<std::size_t>(node)] = lp_.num_rows();
    lp_.begin_constraint(ConstraintType::LessEqual,
                         capacity_scale * topo.node(node).storage_capacity);
    for (int de : in) {
      for (const auto& v : vars_) {
        if (params_.dual_channel) {
          const int va = v.a[static_cast<std::size_t>(de)];
          if (va >= 0) lp_.add_term(va, 1.0);
        }
        const int vb = v.b[static_cast<std::size_t>(de)];
        if (vb >= 0) lp_.add_term(vb, 1.0);
      }
    }
  }
  if (params_.dual_channel) {
    for (int e = 0; e < topo.num_fibers(); ++e) {
      bool any = false;
      for (const auto& v : vars_)
        for (int de : {2 * e, 2 * e + 1})
          if (v.a[static_cast<std::size_t>(de)] >= 0) any = true;
      if (!any) continue;
      entanglement_row_[static_cast<std::size_t>(e)] = lp_.num_rows();
      lp_.begin_constraint(ConstraintType::LessEqual,
                           topo.fiber(e).entanglement_capacity);
      for (const auto& v : vars_) {
        for (int de : {2 * e, 2 * e + 1}) {
          const int va = v.a[static_cast<std::size_t>(de)];
          if (va >= 0) lp_.add_term(va, 1.0);
        }
      }
    }
  }
}

}  // namespace surfnet::routing
