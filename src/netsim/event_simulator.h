#pragma once

// The slot loop behind simulate_surfnet (netsim/simulator.h).
//
// simulate_surfnet visits every slot from 0 until every scheduled code has
// finished or max_slots is reached. Each slot runs one phase sequence
// (shared code in netsim/sim_internal.h): entanglement generation, fault
// injection, the pool snapshot an attached sink records, the service-order
// shuffle, and process_code for each active code. A sink only reads state,
// so observed and unobserved runs execute the same slots and draw the same
// random variates.
//
// This header declares nothing of its own: simulate_surfnet, SimEngine
// and make_simulator live in netsim/simulator.h. perfbench/ includes it.

#include "netsim/simulator.h"
