#include "decoder/erasure_decoder.h"

#include "decoder/peeling.h"
#include "decoder/workspace.h"

namespace surfnet::decoder {

std::vector<char> ErasureDecoder::decode(const DecodeInput& input) const {
  check_decode_input(input);
  return peel_correction(*input.graph, input.erased, input.syndrome);
}

const std::vector<char>& ErasureDecoder::decode(const DecodeInput& input,
                                                DecodeWorkspace& ws) const {
  check_decode_input(input);
  return peel_correction(*input.graph, input.erased, input.syndrome, ws.peel);
}

}  // namespace surfnet::decoder
