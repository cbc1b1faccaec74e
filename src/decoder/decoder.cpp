#include "decoder/decoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "decoder/workspace.h"

namespace surfnet::decoder {

double edge_weight(double error_prob) {
  const double clamped = std::clamp(error_prob, 1e-10, 1.0 - 1e-10);
  return -std::log(clamped);
}

std::vector<double> effective_error_prob(const DecodeInput& input) {
  std::vector<double> prob;
  effective_error_prob(input, prob);
  return prob;
}

void check_decode_input(const DecodeInput& input) {
  if (input.graph == nullptr)
    throw std::invalid_argument("DecodeInput: null graph");
  const std::size_t m = input.graph->num_edges();
  if (input.erased.size() != m || input.error_prob.size() != m)
    throw std::invalid_argument("DecodeInput: per-edge size mismatch");
  if (input.syndrome.size() !=
      static_cast<std::size_t>(input.graph->num_real_vertices()))
    throw std::invalid_argument("DecodeInput: syndrome size mismatch");
}

void effective_error_prob(const DecodeInput& input,
                          std::vector<double>& out) {
  check_decode_input(input);
  const std::size_t m = input.graph->num_edges();
  out.resize(m);
  for (std::size_t e = 0; e < m; ++e)
    out[e] = input.erased[e] ? 0.5 : input.error_prob[e];
}

const std::vector<char>& Decoder::decode(const DecodeInput& input,
                                         DecodeWorkspace& ws) const {
  ws.correction = decode(input);
  return ws.correction;
}

}  // namespace surfnet::decoder
