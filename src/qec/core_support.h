#pragma once

// Core/Support partition of a surface code (paper Sec. IV).
//
// Along every axis of a logical operator at least one high-fidelity data
// qubit prevents a logical error on that axis. The paper fixes the Core to
// a cross topology, built by CodeLattice::core_partition(): the central
// column plus central row of site data qubits (2d-1 Core qubits, matching
// the paper's 7-of-25 distance-4 example).

#include "qec/code_lattice.h"

namespace surfnet::qec {

/// Convenience wrapper over CodeLattice::core_partition().
CoreSupportPartition make_core_support(const CodeLattice& lattice);

}  // namespace surfnet::qec
