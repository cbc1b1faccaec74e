#pragma once

// Unrotated planar surface code of odd or even distance d (paper Fig. 2(a)).
//
// The lattice lives on a (2d-1) x (2d-1) grid of sites:
//   * data qubits        at (even r, even c)  -> d*d of them, and
//                        at (odd r,  odd c)   -> (d-1)*(d-1) of them;
//     total d^2 + (d-1)^2 (13 for d=3, 25 for d=4 — matching the paper).
//   * measure-Z qubits   at (even r, odd c)   -> d*(d-1);
//   * measure-X qubits   at (odd r,  even c)  -> (d-1)*d.
//
// Each data qubit is exactly one edge in each of the two decoding graphs:
//   * the Z-graph (vertices = measure-Z) detects X-type components (X, Y)
//     and has WEST/EAST boundaries; a logical X is a west-east chain.
//   * the X-graph (vertices = measure-X) detects Z-type components (Z, Y)
//     and has NORTH/SOUTH boundaries; a logical Z is a north-south chain.

#include <vector>

#include "qec/code_lattice.h"
#include "util/contracts.h"
#include "qec/graph.h"

namespace surfnet::qec {

class SurfaceCodeLattice final : public CodeLattice {
 public:
  /// Largest distance whose d^2 + (d-1)^2 data-qubit ids fit in int.
  static constexpr int kMaxDistance = 32768;

  /// Build a distance-d lattice. Requires 2 <= d <= kMaxDistance; throws
  /// std::invalid_argument otherwise, before allocating anything.
  explicit SurfaceCodeLattice(int distance);

  int distance() const override { return d_; }
  int num_data_qubits() const override {
    return static_cast<int>(data_coords_.size());
  }
  int num_measure_z() const { return d_ * (d_ - 1); }
  int num_measure_x() const { return (d_ - 1) * d_; }

  /// Grid coordinate of a data qubit.
  Coord data_coord(int q) const override {
    SURFNET_EXPECTS(q >= 0 &&
                    static_cast<std::size_t>(q) < data_coords_.size());
    return data_coords_[static_cast<std::size_t>(q)];
  }

  /// Data qubit index at a grid coordinate; -1 when (r, c) is not a data site.
  int data_index(Coord rc) const;

  /// The two decoding graphs. Edge i in each graph carries `data_qubit`
  /// pointing back into [0, num_data_qubits()).
  const DecodingGraph& graph(GraphKind k) const override {
    return k == GraphKind::Z ? z_graph_ : x_graph_;
  }

  /// Data qubits forming a minimal cut that every logical-X (Z-graph) or
  /// logical-Z (X-graph) chain crosses an odd number of times. Used by the
  /// logical-error check.
  const std::vector<int>& logical_cut(GraphKind k) const override {
    return k == GraphKind::Z ? z_cut_ : x_cut_;
  }

  /// A representative logical operator: data qubits of one straight
  /// boundary-to-boundary chain (row r=0 for logical X, column c=0 for
  /// logical Z). Useful for tests.
  std::vector<int> logical_operator(GraphKind k) const override;

  /// Central cross of site data qubits: 2d-1 Core qubits (paper Sec. IV).
  CoreSupportPartition core_partition() const override;

 private:
  int d_;
  std::vector<Coord> data_coords_;
  std::vector<int> coord_to_data_;  // (2d-1)^2 grid, -1 where not data
  DecodingGraph z_graph_;
  DecodingGraph x_graph_;
  std::vector<int> z_cut_;
  std::vector<int> x_cut_;

  int side() const { return 2 * d_ - 1; }
};

}  // namespace surfnet::qec
