#pragma once

// Common decoder interface. A decoder receives the decoding graph, the
// syndrome bitmap, the known erasure locations, and the per-edge prior
// error probabilities (1 - rho, with rho the estimated fidelity computed
// from the fibers a qubit travelled through — paper Sec. IV-C), and returns
// a per-edge correction whose syndrome must equal the input syndrome.

#include <string_view>
#include <vector>

#include "qec/graph.h"

namespace surfnet::decoder {

struct DecodeInput {
  const qec::DecodingGraph* graph = nullptr;
  std::vector<char> syndrome;       ///< bitmap over real vertices
  std::vector<char> erased;         ///< per edge: known erasure flag
  std::vector<double> error_prob;   ///< per edge: prior P(error), excl. erasure
};

/// Per-edge weight w = -ln(1 - rho) (paper Sec. IV-C): the negative log of
/// the edge's error probability. Erased edges use probability 1/2. The
/// probability is clamped away from {0, 1} for numerical safety.
double edge_weight(double error_prob);

/// Throws std::invalid_argument unless `input` names a graph and carries
/// one erasure flag and one prior per edge of it and one syndrome bit per
/// real vertex. Every library decoder calls it before reading the input.
void check_decode_input(const DecodeInput& input);

/// Effective per-edge error probability: 1/2 on erased edges, the prior
/// otherwise.
std::vector<double> effective_error_prob(const DecodeInput& input);

/// Allocation-free variant: writes into `out` (resized to the edge count).
void effective_error_prob(const DecodeInput& input, std::vector<double>& out);

struct DecodeWorkspace;  // decoder/workspace.h

class Decoder {
 public:
  virtual ~Decoder() = default;

  /// Returns a per-edge correction with the same syndrome as the input.
  virtual std::vector<char> decode(const DecodeInput& input) const = 0;

  /// Workspace overload for hot loops: the correction is written into (and
  /// returned from) a buffer owned by `ws`, valid until the next decode
  /// with that workspace. Decoders that support allocation-free decoding
  /// override this; the default forwards to the allocating path.
  virtual const std::vector<char>& decode(const DecodeInput& input,
                                          DecodeWorkspace& ws) const;

  virtual std::string_view name() const = 0;
};

}  // namespace surfnet::decoder
