#include "netsim/entanglement.h"

#include <stdexcept>

namespace surfnet::netsim {

double purify(double rho1, double rho2) {
  const double num = rho1 * rho2;
  const double den = num + (1.0 - rho1) * (1.0 - rho2);
  if (den <= 0.0) throw std::invalid_argument("purify: degenerate fidelities");
  return num / den;
}

double purified_fidelity(double base, int extra_pairs) {
  double rho = base;
  for (int i = 0; i < extra_pairs; ++i) rho = purify(rho, base);
  return rho;
}

}  // namespace surfnet::netsim
