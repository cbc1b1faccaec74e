#pragma once

// Debug invariant validators for code lattices and decoding graphs. Each
// check_* function walks the whole structure and reports the first broken
// invariant through the contract layer (util/contracts.h), so a validator
// "firing" means SURFNET_ASSERT failing: print-and-abort by default, or a
// ContractViolation under the test handler.
//
// The lattice constructors invoke check_lattice_invariants on themselves
// when SURFNET_CHECKS is on; tests call the validators directly against
// deliberately corrupted structures to prove each check fires.

#include "qec/code_lattice.h"
#include "qec/graph.h"

namespace surfnet::qec {

/// Structural invariants of one decoding graph: endpoint ranges, boundary
/// classification, and edge-list/incidence-index consistency.
void check_graph_invariants(const DecodingGraph& graph);

/// Full lattice validation through the CodeLattice interface:
///   * both decoding graphs pass check_graph_invariants;
///   * one edge per data qubit with edge index == data-qubit index;
///   * data-qubit coordinates are pairwise distinct;
///   * each logical cut is nonempty, in range, and crossed an odd number
///     of times by the representative logical operator;
///   * the Core/Support partition counts are consistent with its mask.
/// The layout-specific count (d^2 + (d-1)^2 data qubits) is asserted by
/// the SurfaceCodeLattice constructor.
void check_lattice_invariants(const CodeLattice& lattice);

}  // namespace surfnet::qec
