#pragma once

// Exact maximum-likelihood erasure decoder (Delfosse-Zemor, arXiv
// 1703.01517) with boundary-aware tie handling: the test oracle of
// erasure_ml_test.cpp, compiled only into that test binary. Linear time
// in the erased region, exact ML over the quantum erasure channel at any
// distance, where the 2^E exhaustive enumerator stops at d = 3; the
// suites hold the peeling decoder against it.
//
// Algorithm. On the erasure channel every erased edge flips with
// probability exactly 1/2, so all error configurations supported on the
// erased region that reproduce the syndrome are equiprobable: the ML
// decision reduces to a statement about homology classes. The decoder
//   1. builds a spanning forest of the erased subgraph rooted at boundary
//      vertices (identical construction — and identical edge discovery
//      order — to peel_correction, so the non-degenerate correction is
//      bitwise the peeling decoder's),
//   2. labels every forest vertex with a cut-parity potential: the XOR of
//      logical-cut flags along its tree path to the root, with all
//      boundary vertices identified as one super-root of potential 0
//      (this is the boundary-aware part: a path between two distinct
//      boundary vertices is a cycle of the super-rooted forest),
//   3. detects *degeneracy* — the erased region supports a logical
//      operator, so both homology classes carry exactly half the
//      solution mass — by scanning the non-tree erased edges: edge
//      (u, v) closes an odd cycle iff pot[u] ^ pot[v] ^ cut(u,v) is 1,
//   4. peels a correction out of the forest (leaves inward), and
//   5. on a degenerate erasure whose peeled correction lands in class 1,
//      XORs the recorded odd cycle (witness edge plus both endpoints'
//      root paths; shared segments cancel) into the correction, so ties
//      always resolve to class 0 — the same pinned tie-break as the
//      exhaustive test oracle (tests/decoder/exhaustive.h), making the two
//      decoders equivalent including tie handling wherever both run.
//
// Contract: like the plain peeling decoder, the syndrome must be
// explainable by the erased region alone (std::logic_error otherwise);
// per-edge priors are ignored — on the erasure channel they carry no
// information. Outside pure erasure the result is still a valid
// correction, but the ML claim only holds for the erasure channel.

#include <vector>

#include "decoder/decoder.h"
#include "qec/code_lattice.h"

namespace surfnet::decoder {

/// Reusable scratch for decode_erasure_ml; buffers only ever grow, so
/// steady-state decoding performs no heap allocations.
struct ErasureMlWorkspace {
  struct TreeEdge {
    int edge;
    int parent;
    int child;
  };
  std::vector<char> visited;
  std::vector<char> pot;          ///< cut parity of the tree path to root
  std::vector<int> parent_edge;   ///< -1 at roots and boundary vertices
  std::vector<int> parent_vertex;
  std::vector<char> in_tree;      ///< per edge: member of the forest
  std::vector<char> syndrome;     ///< mutable copy of the input bitmap
  std::vector<TreeEdge> forest;
  std::vector<int> stack;
  std::vector<char> correction;
};

/// Class decision attached to one erasure-ML decode.
struct ErasureMlInfo {
  /// The erased region supports a logical operator: both homology classes
  /// hold exactly half the solution mass and any class choice is ML.
  bool degenerate = false;
  /// Homology class of the returned correction: the unique solution class
  /// when non-degenerate, always 0 (pinned tie-break) when degenerate.
  int chosen_class = 0;
};

/// Decode `syndrome` over the erased region exact-ML. `cut_edges` is a
/// per-edge bitmap marking the lattice's logical cut (class = parity of a
/// chain over the cut). The correction is written into (and returned
/// from) `ws.correction`; `info`, when non-null, receives the class
/// decision. Throws std::logic_error when the syndrome is not confined to
/// the erased region.
const std::vector<char>& decode_erasure_ml(const qec::DecodingGraph& graph,
                                           const std::vector<char>& cut_edges,
                                           const std::vector<char>& erased,
                                           const std::vector<char>& syndrome,
                                           ErasureMlWorkspace& ws,
                                           ErasureMlInfo* info = nullptr);

/// Decision of the Decoder-interface adapter's introspective entry point.
struct ErasureMlDecision {
  std::vector<char> correction;
  ErasureMlInfo info;
};

/// Decoder-interface adapter. Borrows the lattice (graph resolution and
/// logical cuts); the caller keeps it alive. Selectable through the trial
/// runner like the library decoders; its workspace overload is Decoder's
/// default, which forwards to the allocating decode.
class ErasureMlDecoder final : public Decoder {
 public:
  explicit ErasureMlDecoder(const qec::CodeLattice& lattice);

  using Decoder::decode;
  std::vector<char> decode(const DecodeInput& input) const override;
  std::string_view name() const override { return "ErasureML"; }

  /// Decode with the class decision exposed (differential and property
  /// suites); same correction as decode().
  ErasureMlDecision decode_with_info(const DecodeInput& input) const;

 private:
  const std::vector<char>& cut_flags(const DecodeInput& input) const;

  const qec::CodeLattice* lattice_;
  std::vector<char> cut_flags_z_;  ///< per-edge logical-cut bitmap, Z graph
  std::vector<char> cut_flags_x_;  ///< per-edge logical-cut bitmap, X graph
};

}  // namespace surfnet::decoder
