#pragma once

// Abstract surface-code lattice: everything the decoders, the syndrome
// machinery and the Core/Support partition need. The one layout is the
// unrotated planar SurfaceCodeLattice (qec/lattice.h); the interface lets
// tests substitute a deliberately corrupted lattice
// (tests/qec/validate_test.cpp).

#include <vector>

#include "qec/graph.h"

namespace surfnet::qec {

struct Coord {
  int r = 0;
  int c = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

enum class GraphKind { Z, X };

struct CoreSupportPartition {
  std::vector<char> is_core;  ///< per data qubit; char to avoid vector<bool>
  int num_core = 0;
  int num_support = 0;
};

class CodeLattice {
 public:
  virtual ~CodeLattice() = default;

  virtual int distance() const = 0;
  virtual int num_data_qubits() const = 0;

  /// Decoding graph of one stabilizer type. Edge i of each graph carries
  /// `data_qubit` pointing back into [0, num_data_qubits()); by contract,
  /// edge index == data-qubit index.
  virtual const DecodingGraph& graph(GraphKind kind) const = 0;

  /// Data qubits forming a minimal cut that every logical chain of `kind`
  /// crosses an odd number of times.
  virtual const std::vector<int>& logical_cut(GraphKind kind) const = 0;

  /// A representative boundary-to-boundary logical operator chain.
  virtual std::vector<int> logical_operator(GraphKind kind) const = 0;

  /// Grid coordinate of a data qubit (layout specific; used for display
  /// and for the Core cross).
  virtual Coord data_coord(int q) const = 0;

  /// The fixed cross-shaped Core/Support partition (paper Sec. IV).
  virtual CoreSupportPartition core_partition() const = 0;
};

}  // namespace surfnet::qec
