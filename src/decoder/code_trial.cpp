#include "decoder/code_trial.h"

#include "qec/syndrome.h"

namespace surfnet::decoder {

DecodeInput make_decode_input(const qec::CodeLattice& lattice,
                              qec::GraphKind kind,
                              const qec::ErrorSample& sample,
                              const std::vector<double>& component_prior) {
  const qec::DecodingGraph& graph = lattice.graph(kind);
  DecodeInput input;
  input.graph = &graph;
  const auto flips = qec::edge_flips(lattice, kind, sample.error);
  input.syndrome = qec::syndrome_bitmap(graph, flips);
  input.erased = qec::erased_edges(lattice, kind, sample.erased);
  input.error_prob.resize(graph.num_edges());
  for (std::size_t e = 0; e < graph.num_edges(); ++e)
    input.error_prob[e] =
        component_prior[static_cast<std::size_t>(graph.edge(e).data_qubit)];
  return input;
}

CodeTrialResult decode_sample(const qec::CodeLattice& lattice,
                              const qec::ErrorSample& sample,
                              const std::vector<double>& component_prior,
                              const Decoder& decoder) {
  CodeTrialWorkspace ws;
  return decode_sample(lattice, sample, component_prior, decoder, ws);
}

CodeTrialResult decode_sample(const qec::CodeLattice& lattice,
                              const qec::ErrorSample& sample,
                              const std::vector<double>& component_prior,
                              const Decoder& decoder,
                              CodeTrialWorkspace& ws) {
  CodeTrialResult result;
  for (const auto kind : {qec::GraphKind::Z, qec::GraphKind::X}) {
    const qec::DecodingGraph& graph = lattice.graph(kind);
    // The true flips double as the syndrome source and the evaluation
    // reference — computed once per graph.
    qec::edge_flips(lattice, kind, sample.error, ws.flips);
    ws.input.graph = &graph;
    qec::syndrome_bitmap(graph, ws.flips, ws.input.syndrome);
    for (const char s : ws.input.syndrome) result.syndromes += s ? 1 : 0;
    qec::erased_edges(lattice, kind, sample.erased, ws.input.erased);
    ws.input.error_prob.resize(graph.num_edges());
    for (std::size_t e = 0; e < graph.num_edges(); ++e)
      ws.input.error_prob[e] =
          component_prior[static_cast<std::size_t>(graph.edge(e).data_qubit)];
    const auto& correction = decoder.decode(ws.input, ws.decode);
    const auto outcome =
        qec::evaluate_correction(lattice, kind, ws.flips, correction, ws.eval);
    (kind == qec::GraphKind::Z ? result.z_graph : result.x_graph) = outcome;
  }
  return result;
}

double logical_error_rate(const qec::CodeLattice& lattice,
                          const qec::NoiseProfile& profile,
                          const Decoder& decoder, int trials, util::Rng& rng) {
  // The prior depends only on the profile — computed once, not per trial.
  const auto prior = profile.component_error_prob();
  CodeTrialWorkspace ws;
  int failures = 0;
  for (int t = 0; t < trials; ++t) {
    qec::sample_errors(profile, rng, ws.sample);
    if (!decode_sample(lattice, ws.sample, prior, decoder, ws).success())
      ++failures;
  }
  return trials > 0 ? static_cast<double>(failures) / trials : 0.0;
}

}  // namespace surfnet::decoder
