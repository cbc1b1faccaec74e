#pragma once

// The event engine behind simulate_surfnet (netsim/simulator.h).
//
// It executes the slot model of simulator.h, but its cost is proportional
// to *activity* instead of `slots × topology`. The engine keeps a
// deterministic pending-event queue (netsim/event_queue.h) of slots at
// which something can happen: scripted fault onsets/expiries, request
// launches and timeouts, retry/backoff timers, entanglement-readiness
// thresholds, and generic code wake-ups. Slots with no pending event are
// skipped; skipped slots are provably draw-free and trace-free, and their
// entanglement gains are applied in closed form (see DESIGN.md §"Event
// engine"), so idle fibers and quiescent codes cost nothing.
//
// When a run cannot skip safely — an attached obs::Sink observes every
// slot, stochastic fault processes draw every slot, several requests
// contend through the per-slot service shuffle, or a fractional base rate
// draws one Bernoulli per fiber per slot — the engine visits every slot.
// A visited slot always runs the same phase sequence (shared code in
// netsim/sim_internal.h), so skipping only decides which slots run. The
// differential tests pin that against detail::simulate_surfnet_every_slot,
// the same engine forced to visit every slot.
//
// This header declares nothing of its own: simulate_surfnet, SimEngine
// and make_simulator live in netsim/simulator.h. perfbench/ includes it.

#include "netsim/simulator.h"
