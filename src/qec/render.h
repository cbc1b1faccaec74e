#pragma once

// ASCII rendering of surface-code lattices and error configurations —
// the debugging companion to the decoder stack. Renders the paper's
// Fig. 2/3-style pictures in a terminal:
//
//   .   o   .   o   B        o  data qubit      X/Y/Z  Pauli error
//     Z   X                  #  erased qubit    *      syndrome
//   o   .   o   .            Z/X stabilizer     +      correction edge

#include <string>
#include <vector>

#include "qec/error_model.h"
#include "qec/lattice.h"
#include "qec/pauli.h"

namespace surfnet::qec {

/// Render the static lattice: data-qubit sites and the stabilizers of one
/// graph (vertices labelled Z or X), on the data-coordinate grid.
std::string render_lattice(const SurfaceCodeLattice& lattice);

/// Render one error configuration: Pauli letters at erroring qubits, '#'
/// at erasures, '*' at the induced syndromes of `kind`, and optionally
/// '+' at correction edges.
std::string render_errors(const SurfaceCodeLattice& lattice, GraphKind kind,
                          const ErrorSample& sample,
                          const std::vector<char>* correction = nullptr);

/// Render the Core/Support partition: 'C' at Core qubits, 'o' elsewhere.
std::string render_core(const SurfaceCodeLattice& lattice);

}  // namespace surfnet::qec
