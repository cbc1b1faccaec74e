#include "qec/lattice.h"

#include <climits>
#include <stdexcept>
#include <string>

#include "qec/validate.h"
#include "util/contracts.h"

namespace surfnet::qec {

namespace {

/// Vertex id of the measure-Z qubit at (r even, c odd).
int zid(int r, int c, int d) { return (r / 2) * (d - 1) + (c - 1) / 2; }

/// Vertex id of the measure-X qubit at (r odd, c even).
int xid(int r, int c, int d) { return ((r - 1) / 2) * d + c / 2; }

/// Data qubits of a distance-d lattice, in 64 bits.
constexpr long long data_qubits(long long d) {
  return d * d + (d - 1) * (d - 1);
}
static_assert(data_qubits(SurfaceCodeLattice::kMaxDistance) <= INT_MAX &&
              data_qubits(SurfaceCodeLattice::kMaxDistance + 1LL) > INT_MAX);

}  // namespace

SurfaceCodeLattice::SurfaceCodeLattice(int distance) : d_(distance) {
  if (d_ < 2 || d_ > kMaxDistance)
    throw std::invalid_argument(
        "surface code distance must be in [2, " +
        std::to_string(kMaxDistance) + "]");
  const int n = side();
  coord_to_data_.assign(static_cast<std::size_t>(n) * n, -1);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if ((r + c) % 2 != 0) continue;  // not a data site
      coord_to_data_[static_cast<std::size_t>(r) * n + c] =
          static_cast<int>(data_coords_.size());
      data_coords_.push_back({r, c});
    }
  }

  // --- Z-graph: vertices are measure-Z qubits, boundaries WEST/EAST. ---
  {
    const int num_real = num_measure_z();
    const BoundaryIds boundary{num_real, num_real + 1};
    std::vector<GraphEdge> edges;
    edges.reserve(data_coords_.size());
    for (int q = 0; q < num_data_qubits(); ++q) {
      const auto [r, c] = data_coords_[static_cast<std::size_t>(q)];
      GraphEdge e;
      e.data_qubit = q;
      if (r % 2 == 0) {
        // Horizontal edge between same-row measure-Z qubits.
        e.u = (c == 0) ? boundary.first : zid(r, c - 1, d_);
        e.v = (c == n - 1) ? boundary.second : zid(r, c + 1, d_);
      } else {
        // Vertical edge between same-column measure-Z qubits.
        e.u = zid(r - 1, c, d_);
        e.v = zid(r + 1, c, d_);
      }
      edges.push_back(e);
      if (r % 2 == 0 && c == 0) z_cut_.push_back(q);
    }
    z_graph_ = DecodingGraph(num_real, boundary, std::move(edges));
  }

  // --- X-graph: vertices are measure-X qubits, boundaries NORTH/SOUTH. ---
  {
    const int num_real = num_measure_x();
    const BoundaryIds boundary{num_real, num_real + 1};
    std::vector<GraphEdge> edges;
    edges.reserve(data_coords_.size());
    for (int q = 0; q < num_data_qubits(); ++q) {
      const auto [r, c] = data_coords_[static_cast<std::size_t>(q)];
      GraphEdge e;
      e.data_qubit = q;
      if (r % 2 == 0) {
        // Vertical edge between same-column measure-X qubits.
        e.u = (r == 0) ? boundary.first : xid(r - 1, c, d_);
        e.v = (r == n - 1) ? boundary.second : xid(r + 1, c, d_);
      } else {
        // Horizontal edge between same-row measure-X qubits.
        e.u = xid(r, c - 1, d_);
        e.v = xid(r, c + 1, d_);
      }
      edges.push_back(e);
      if (r % 2 == 0 && r == 0) x_cut_.push_back(q);
    }
    x_graph_ = DecodingGraph(num_real, boundary, std::move(edges));
  }

  // Paper Fig. 2(a): d^2 site + (d-1)^2 cell data qubits, d(d-1) measure
  // qubits per stabilizer type.
  SURFNET_ENSURES(num_data_qubits() == d_ * d_ + (d_ - 1) * (d_ - 1),
                  "%d data qubits for distance %d", num_data_qubits(), d_);
  SURFNET_ENSURES(num_measure_z() + num_measure_x() == 2 * d_ * (d_ - 1),
                  "%d measure qubits for distance %d",
                  num_measure_z() + num_measure_x(), d_);
#if SURFNET_CHECKS
  check_lattice_invariants(*this);
#endif
}

int SurfaceCodeLattice::data_index(Coord rc) const {
  const int n = side();
  if (rc.r < 0 || rc.c < 0 || rc.r >= n || rc.c >= n) return -1;
  return coord_to_data_[static_cast<std::size_t>(rc.r) * n + rc.c];
}

CoreSupportPartition SurfaceCodeLattice::core_partition() const {
  // Central even coordinate: d-1 when d is odd (exact center), d otherwise.
  const int center = (d_ % 2 == 1) ? d_ - 1 : d_;
  CoreSupportPartition part;
  part.is_core.assign(static_cast<std::size_t>(num_data_qubits()), 0);
  for (int q = 0; q < num_data_qubits(); ++q) {
    const Coord rc = data_coord(q);
    const bool site = (rc.r % 2 == 0);  // (even, even) data qubit
    if (site && (rc.c == center || rc.r == center)) {
      part.is_core[static_cast<std::size_t>(q)] = 1;
      ++part.num_core;
    }
  }
  part.num_support = num_data_qubits() - part.num_core;
  return part;
}

std::vector<int> SurfaceCodeLattice::logical_operator(GraphKind k) const {
  std::vector<int> chain;
  const int n = side();
  for (int t = 0; t < n; t += 2) {
    // Logical X: west-east chain along row 0; logical Z: north-south chain
    // along column 0.
    const Coord rc = (k == GraphKind::Z) ? Coord{0, t} : Coord{t, 0};
    chain.push_back(data_index(rc));
  }
  return chain;
}

}  // namespace surfnet::qec
