#include "decoder/union_find.h"

#include "decoder/workspace.h"

namespace surfnet::decoder {

std::vector<char> UnionFindDecoder::decode(const DecodeInput& input) const {
  DecodeWorkspace ws;
  return decode(input, ws);
}

const std::vector<char>& UnionFindDecoder::decode(const DecodeInput& input,
                                                  DecodeWorkspace& ws) const {
  check_decode_input(input);
  const qec::DecodingGraph& graph = *input.graph;
  // Uniform half-edge growth; fidelity information is deliberately unused.
  ws.config.speed.assign(graph.num_edges(), 0.5);
  ws.config.pregrown = input.erased;
  const auto& region =
      grow_clusters(graph, input.syndrome, ws.config, ws.growth);
  return peel_correction(graph, region, input.syndrome, ws.peel);
}

}  // namespace surfnet::decoder
