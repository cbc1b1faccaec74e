#pragma once

// Dense two-phase tableau simplex — the original SurfNet LP core, kept as
// the test oracle the sparse revised solver (routing/simplex) is validated
// against. The algorithm is unchanged: phase 1 drives artificial variables
// to zero, phase 2 optimizes the real objective with Dantzig pricing and a
// Bland's-rule fallback, upper bounds materialize as explicit rows, and
// inequality right-hand sides carry a tiny deterministic anti-degeneracy
// perturbation.
//
// The equivalence and property tests assert that both solvers agree on
// LpStatus and on the objective within 1e-6.

#include "routing/simplex.h"

namespace surfnet::routing {

LpSolution solve_lp_dense(const LpProblem& problem);

}  // namespace surfnet::routing
