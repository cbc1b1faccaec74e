#include "decoder/surfnet_decoder.h"

#include <limits>
#include <stdexcept>

#include "decoder/workspace.h"

namespace surfnet::decoder {

SurfNetDecoder::SurfNetDecoder(double step_size) : step_size_(step_size) {
  if (step_size <= 0.0)
    throw std::invalid_argument("SurfNetDecoder: step size must be positive");
}

std::vector<char> SurfNetDecoder::decode(const DecodeInput& input) const {
  DecodeWorkspace ws;
  return decode(input, ws);
}

const std::vector<char>& SurfNetDecoder::decode(const DecodeInput& input,
                                                DecodeWorkspace& ws) const {
  check_decode_input(input);
  const qec::DecodingGraph& graph = *input.graph;

  // Erasure locations are perfectly known, so clusters are seeded with the
  // erased edges before growth starts (Algorithm 2 grows erasures at the
  // maximal speed; seeding them is that rule's limit and matches the
  // Union-Find/peeling heritage, where erasure components initialize the
  // clusters). This is what lets the decoder "prioritize locations with
  // erasures" (paper Sec. IV). Growth never reads a pregrown edge's speed.
  ws.config.pregrown = input.erased;
  ws.config.speed.resize(graph.num_edges());
  // A code carries one prior per noise class, so the speed is computed once
  // per run of equal priors rather than once per edge.
  double prior = std::numeric_limits<double>::quiet_NaN();
  double speed = 0.0;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    if (input.error_prob[e] != prior) {
      prior = input.error_prob[e];
      // Algorithm 2 lines 4-6: grow by -r / ln(1 - rho) per round, where
      // the growth unit is inherited from the Union-Find decoder the
      // routine is adapted from — half an edge — so the per-round progress
      // in whole-edge units is r / (2 w) with w = -ln(P(error)).
      speed = 0.5 * step_size_ / edge_weight(prior);
    }
    ws.config.speed[e] = speed;
  }
  const auto& region =
      grow_clusters(graph, input.syndrome, ws.config, ws.growth);
  return peel_correction(graph, region, input.syndrome, ws.peel);
}

}  // namespace surfnet::decoder
