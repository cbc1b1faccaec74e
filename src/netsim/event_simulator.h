#pragma once

// Declares nothing of its own: the slot loop of all five network designs
// (simulate_surfnet, simulate_purification, Simulator, SimEngine and
// make_simulator) lives in netsim/simulator.h. perfbench/ includes it.

#include "netsim/simulator.h"
