#pragma once

// End-to-end single-code decoding trials: sample an error configuration on
// a surface code, decode both graphs (X-type errors on the Z-graph, Z-type
// on the X-graph), and report validity and logical success. This is the
// engine behind the Fig. 8 threshold study and behind per-communication
// fidelity in the network simulator.

#include "decoder/decoder.h"
#include "decoder/workspace.h"
#include "qec/error_model.h"
#include "qec/code_lattice.h"
#include "qec/logical.h"
#include "util/rng.h"

namespace surfnet::decoder {

struct CodeTrialResult {
  qec::DecodeOutcome z_graph;  ///< X-type error correction outcome
  qec::DecodeOutcome x_graph;  ///< Z-type error correction outcome
  int syndromes = 0;           ///< lit syndrome vertices, both graphs
  bool success() const { return z_graph.success() && x_graph.success(); }
};

/// Everything one thread needs to run trials without per-trial heap
/// allocations: the sampled error, the per-graph decode input, the true
/// flips, the decoder scratch, and the evaluation scratch.
struct CodeTrialWorkspace {
  qec::ErrorSample sample;
  DecodeInput input;
  std::vector<char> flips;
  DecodeWorkspace decode;
  qec::EvalScratch eval;
};

/// Build the decoder input for one graph from a sampled error.
DecodeInput make_decode_input(const qec::CodeLattice& lattice,
                              qec::GraphKind kind,
                              const qec::ErrorSample& sample,
                              const std::vector<double>& component_prior);

/// Decode a given sampled error on both graphs.
CodeTrialResult decode_sample(const qec::CodeLattice& lattice,
                              const qec::ErrorSample& sample,
                              const std::vector<double>& component_prior,
                              const Decoder& decoder);

/// Allocation-free variant: reuses every buffer in `ws`. `sample` may
/// alias `ws.sample` (the trial runner samples into it directly).
CodeTrialResult decode_sample(const qec::CodeLattice& lattice,
                              const qec::ErrorSample& sample,
                              const std::vector<double>& component_prior,
                              const Decoder& decoder, CodeTrialWorkspace& ws);

/// Monte-Carlo logical error rate over `trials` samples.
double logical_error_rate(const qec::CodeLattice& lattice,
                          const qec::NoiseProfile& profile,
                          const Decoder& decoder, int trials, util::Rng& rng);

}  // namespace surfnet::decoder
