// Differential test of cluster growth and peeling against the reference
// copies in growth_reference.h. The decoders' grow_clusters restores only
// the entries the previous decode touched, keeps cluster frontiers as
// linked flat segments, and peels from region vertices only; none of that
// may change a bit of the output. Over random syndromes, erasures and
// speeds (Union-Find's uniform 0.5 and the SurfNet Decoder's per-edge
// speeds) at d = 3..15, one long-lived DecodeWorkspace is reused dirty
// across distances, graphs and decoders, and every decode must give the
// reference's region mask, cluster representatives and correction.
//
// Replay a counterexample with SURFNET_PROP_SEED=<seed>; scale the
// campaign with SURFNET_PROP_ITERS=<n>.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "../proptest.h"
#include "decoder/cluster_growth.h"
#include "decoder/decoder.h"
#include "decoder/peeling.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/union_find.h"
#include "decoder/workspace.h"
#include "growth_reference.h"
#include "qec/lattice.h"
#include "qec/syndrome.h"

namespace surfnet::decoder {
namespace {

constexpr int kMinDistance = 3;
constexpr int kMaxDistance = 15;

const qec::SurfaceCodeLattice& lattice_of(int d) {
  static const auto lattices = [] {
    std::vector<std::unique_ptr<qec::SurfaceCodeLattice>> all;
    for (int k = kMinDistance; k <= kMaxDistance; ++k)
      all.push_back(std::make_unique<qec::SurfaceCodeLattice>(k));
    return all;
  }();
  return *lattices[static_cast<std::size_t>(d - kMinDistance)];
}

/// A random decode input: the syndrome of random flips or random syndrome
/// bits, random erasures, and priors from a few noise classes or drawn per
/// edge.
DecodeInput random_input(util::Rng& rng, const qec::DecodingGraph& graph) {
  const std::size_t ne = graph.num_edges();
  const auto nv = static_cast<std::size_t>(graph.num_real_vertices());
  DecodeInput input;
  input.graph = &graph;
  const double erasure = proptest::chance(rng, 0.3)
                             ? 0.0
                             : proptest::real_in(rng, 0.0, 0.3);
  input.erased.assign(ne, 0);
  for (auto& e : input.erased) e = proptest::chance(rng, erasure) ? 1 : 0;
  if (proptest::chance(rng, 0.7)) {
    const double flip = proptest::real_in(rng, 0.0, 0.2);
    std::vector<char> flips(ne, 0);
    for (std::size_t e = 0; e < ne; ++e)
      flips[e] = proptest::chance(rng, input.erased[e] ? 0.5 : flip) ? 1 : 0;
    input.syndrome = qec::syndrome_bitmap(graph, flips);
  } else {
    const double lit = proptest::real_in(rng, 0.0, 0.5);
    input.syndrome.assign(nv, 0);
    for (auto& s : input.syndrome) s = proptest::chance(rng, lit) ? 1 : 0;
  }
  input.error_prob.assign(ne, 0.0);
  if (proptest::chance(rng, 0.6)) {
    const double classes[] = {proptest::real_in(rng, 1e-4, 0.2),
                              proptest::real_in(rng, 1e-4, 0.2),
                              proptest::real_in(rng, 1e-4, 0.2)};
    const int used = proptest::int_in(rng, 1, 3);
    for (auto& p : input.error_prob)
      p = classes[proptest::int_in(rng, 0, used - 1)];
  } else {
    for (auto& p : input.error_prob) p = proptest::real_in(rng, 1e-6, 0.45);
  }
  return input;
}

/// The reference pipeline: speeds computed per edge, then growth and
/// peeling on fresh-every-decode buffers.
struct Reference {
  GrowthConfig config;
  reference::GrowthWorkspace growth;
  reference::PeelWorkspace peel;

  const std::vector<char>& decode(const DecodeInput& input, double step) {
    const std::size_t ne = input.graph->num_edges();
    config.speed.assign(ne, 0.5);
    if (step > 0.0)
      for (std::size_t e = 0; e < ne; ++e)
        config.speed[e] =
            0.5 * step /
            edge_weight(input.erased[e] ? 0.5 : input.error_prob[e]);
    config.pregrown = input.erased;
    const auto& region =
        reference::grow_clusters(*input.graph, input.syndrome, config, growth);
    return reference::peel_correction(*input.graph, region, input.syndrome,
                                      peel);
  }
};

/// Region, growth (the same additions in every round), cluster
/// representatives (which root survives each fusion, so the fusion order),
/// cluster flags and correction all match bit for bit.
void expect_same_decode(const qec::DecodingGraph& graph,
                        GrowthWorkspace& ws, reference::GrowthWorkspace& ref,
                        const std::vector<char>& correction,
                        const std::vector<char>& ref_correction) {
  ASSERT_EQ(ws.region, ref.region);
  ASSERT_EQ(ws.growth.size(), ref.growth.size());
  for (std::size_t e = 0; e < ws.growth.size(); ++e)
    ASSERT_EQ(std::memcmp(&ws.growth[e], &ref.growth[e], sizeof(double)), 0)
        << "edge " << e << ": " << ws.growth[e] << " vs " << ref.growth[e];
  for (int v = 0; v < graph.num_real_vertices(); ++v) {
    const int root = ws.dsu.find(v);
    ASSERT_EQ(root, ref.dsu.find(v)) << "vertex " << v;
    const auto r = static_cast<std::size_t>(root);
    ASSERT_EQ(ws.parity[r] != 0, ref.parity[r] != 0) << "root " << root;
    ASSERT_EQ(ws.touches_boundary[r] != 0, ref.touches_boundary[r] != 0)
        << "root " << root;
  }
  ASSERT_EQ(correction, ref_correction);
}

TEST(GrowthOracle, MatchesReferenceOnDirtyWorkspaces) {
  const UnionFindDecoder union_find;
  DecodeWorkspace ws;  // shared by every case, distance and decoder
  Reference ref;
  proptest::check("growth_oracle", {300, 0x0AC1E5EEDULL}, [&](util::Rng& rng) {
    const int d = proptest::int_in(rng, kMinDistance, kMaxDistance);
    const auto kind =
        proptest::chance(rng, 0.5) ? qec::GraphKind::Z : qec::GraphKind::X;
    const auto& graph = lattice_of(d).graph(kind);
    const DecodeInput input = random_input(rng, graph);
    const double step = proptest::chance(rng, 0.5)
                            ? 2.0 / 3.0
                            : proptest::real_in(rng, 0.05, 2.0);
    const SurfNetDecoder surfnet(step);
    // Both decoders in a random order, each on the other's leftovers.
    const bool surfnet_first = proptest::chance(rng, 0.5);
    for (int pass = 0; pass < 2; ++pass) {
      const bool use_surfnet = (pass == 0) == surfnet_first;
      const Decoder& decoder =
          use_surfnet ? static_cast<const Decoder&>(surfnet) : union_find;
      SCOPED_TRACE(testing::Message()
                   << decoder.name() << " d=" << d << " step=" << step);
      const std::vector<char> correction = decoder.decode(input, ws);
      const auto& ref_correction = ref.decode(input, use_surfnet ? step : 0.0);
      expect_same_decode(graph, ws.growth, ref.growth, correction,
                         ref_correction);
    }
  });
}

TEST(GrowthOracle, WorkspaceRecoversFromAThrowingDecode) {
  // A triangle without boundary vertices: one lit vertex can never pair,
  // so growth throws mid-decode with clusters fused and edges grown.
  const qec::DecodingGraph triangle(3, {}, {{0, 1, 0}, {1, 2, 1}, {2, 0, 2}});
  GrowthConfig stuck;
  stuck.speed.assign(3, 0.5);
  GrowthConfig capped;
  capped.speed.assign(3, 0.25);
  capped.max_rounds = 2;

  const auto& graph = lattice_of(7).graph(qec::GraphKind::Z);
  util::Rng rng(7);
  GrowthWorkspace ws;
  PeelWorkspace peel;
  Reference ref;
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(grow_clusters(triangle, {1, 0, 0},
                               round % 2 ? stuck : capped, ws),
                 std::logic_error);
    const DecodeInput input = random_input(rng, graph);
    GrowthConfig config;
    config.speed.assign(graph.num_edges(), 0.5);
    config.pregrown = input.erased;
    const auto& region = grow_clusters(graph, input.syndrome, config, ws);
    const auto& correction =
        peel_correction(graph, region, input.syndrome, peel);
    const auto& ref_correction = ref.decode(input, 0.0);
    expect_same_decode(graph, ws, ref.growth, correction, ref_correction);
  }
}

}  // namespace
}  // namespace surfnet::decoder
