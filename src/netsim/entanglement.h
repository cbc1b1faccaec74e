#pragma once

// Entanglement purification (paper Sec. IV-C): the recurrence protocol the
// purification designs use to raise pair fidelity. The simulators keep
// their per-fiber pair pools themselves, as plain vectors that
// detail::EntanglementRates (netsim/sim_internal.h) refills every slot.

namespace surfnet::netsim {

/// One round of recurrence purification combining two pairs of fidelities
/// rho1 and rho2 (paper Sec. IV-C, ref. [11]):
///   rho' = rho1 rho2 / (rho1 rho2 + (1 - rho1)(1 - rho2)).
double purify(double rho1, double rho2);

/// Fidelity after consuming `extra_pairs` additional pairs of the same base
/// fidelity in successive purification rounds (the paper's Purification
/// N = 1, 2, 9 benchmarks use extra_pairs = N).
double purified_fidelity(double base, int extra_pairs);

}  // namespace surfnet::netsim
