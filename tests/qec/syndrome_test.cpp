#include "qec/syndrome.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "qec/error_model.h"
#include "qec/logical.h"
#include "util/rng.h"

namespace surfnet::qec {
namespace {

TEST(Syndrome, NoErrorNoSyndrome) {
  const SurfaceCodeLattice lattice(5);
  const std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto flips = edge_flips(lattice, kind, error);
    EXPECT_TRUE(syndrome_vertices(lattice.graph(kind), flips).empty());
  }
}

TEST(Syndrome, SingleBulkXErrorLightsTwoZSyndromes) {
  const SurfaceCodeLattice lattice(5);
  // Pick an interior data qubit: an (odd, odd) one is never on a Z-graph
  // boundary edge.
  const int q = lattice.data_index({1, 1});
  ASSERT_GE(q, 0);
  std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  error[static_cast<std::size_t>(q)] = Pauli::X;
  const auto flips = edge_flips(lattice, GraphKind::Z, error);
  EXPECT_EQ(syndrome_vertices(lattice.graph(GraphKind::Z), flips).size(), 2u);
  // An X error is invisible to the X-graph.
  const auto xflips = edge_flips(lattice, GraphKind::X, error);
  EXPECT_TRUE(syndrome_vertices(lattice.graph(GraphKind::X), xflips).empty());
}

TEST(Syndrome, BoundaryErrorLightsOneSyndrome) {
  const SurfaceCodeLattice lattice(5);
  const int q = lattice.data_index({0, 0});  // west boundary for Z-graph
  ASSERT_GE(q, 0);
  std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  error[static_cast<std::size_t>(q)] = Pauli::X;
  const auto flips = edge_flips(lattice, GraphKind::Z, error);
  EXPECT_EQ(syndrome_vertices(lattice.graph(GraphKind::Z), flips).size(), 1u);
}

TEST(Syndrome, YErrorVisibleOnBothGraphs) {
  const SurfaceCodeLattice lattice(5);
  const int q = lattice.data_index({2, 2});
  ASSERT_GE(q, 0);
  std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  error[static_cast<std::size_t>(q)] = Pauli::Y;
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto flips = edge_flips(lattice, kind, error);
    EXPECT_FALSE(syndrome_vertices(lattice.graph(kind), flips).empty());
  }
}

TEST(Syndrome, LogicalOperatorHasEmptySyndrome) {
  for (int d : {3, 5, 7}) {
    const SurfaceCodeLattice lattice(d);
    for (auto kind : {GraphKind::Z, GraphKind::X}) {
      std::vector<Pauli> error(
          static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
      const Pauli op = (kind == GraphKind::Z) ? Pauli::X : Pauli::Z;
      for (int q : lattice.logical_operator(kind))
        error[static_cast<std::size_t>(q)] = op;
      const auto flips = edge_flips(lattice, kind, error);
      EXPECT_TRUE(syndrome_vertices(lattice.graph(kind), flips).empty())
          << "d=" << d;
      // ... and it registers as a logical flip on the cut.
      EXPECT_TRUE(logical_flip(lattice, kind, flips)) << "d=" << d;
    }
  }
}

TEST(Syndrome, SyndromeIsLinearInErrors) {
  // syndrome(e1 XOR e2) == syndrome(e1) XOR syndrome(e2), per graph.
  const SurfaceCodeLattice lattice(5);
  util::Rng rng(42);
  const auto profile = NoiseProfile::uniform(lattice.num_data_qubits(), 0.2,
                                             0.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s1 = sample_errors(profile, rng);
    const auto s2 = sample_errors(profile, rng);
    std::vector<Pauli> combined(s1.error.size());
    for (std::size_t q = 0; q < combined.size(); ++q)
      combined[q] = s1.error[q] * s2.error[q];
    for (auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto& graph = lattice.graph(kind);
      const auto b1 = syndrome_bitmap(graph, edge_flips(lattice, kind,
                                                        s1.error));
      const auto b2 = syndrome_bitmap(graph, edge_flips(lattice, kind,
                                                        s2.error));
      const auto bc = syndrome_bitmap(graph, edge_flips(lattice, kind,
                                                        combined));
      for (std::size_t v = 0; v < bc.size(); ++v)
        EXPECT_EQ(bc[v], (b1[v] ^ b2[v]) & 1);
    }
  }
}

TEST(Syndrome, StabilizerHasEmptySyndromeAndNoLogicalFlip) {
  // The four data qubits around one measure-X qubit form an X-stabilizer:
  // applying X to all of them commutes with every Z measurement (they form
  // a closed plaquette cycle in the Z-graph) and is homologically trivial.
  const SurfaceCodeLattice lattice(5);
  // Measure-X at (1, 2): neighbors (0,2), (2,2), (1,1), (1,3).
  std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  for (Coord rc : {Coord{0, 2}, Coord{2, 2}, Coord{1, 1}, Coord{1, 3}}) {
    const int q = lattice.data_index(rc);
    ASSERT_GE(q, 0);
    error[static_cast<std::size_t>(q)] = Pauli::X;
  }
  const auto flips = edge_flips(lattice, GraphKind::Z, error);
  EXPECT_TRUE(syndrome_vertices(lattice.graph(GraphKind::Z), flips).empty());
  EXPECT_FALSE(logical_flip(lattice, GraphKind::Z, flips));
}

TEST(EvaluateCorrection, PerfectCorrectionSucceeds) {
  const SurfaceCodeLattice lattice(3);
  const int q = lattice.data_index({1, 1});
  std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  error[static_cast<std::size_t>(q)] = Pauli::X;
  const auto flips = edge_flips(lattice, GraphKind::Z, error);
  const auto outcome = evaluate_correction(lattice, GraphKind::Z, flips,
                                           flips);
  EXPECT_TRUE(outcome.valid);
  EXPECT_FALSE(outcome.logical);
  EXPECT_TRUE(outcome.success());
}

TEST(EvaluateCorrection, EmptyCorrectionOfRealErrorIsInvalid) {
  const SurfaceCodeLattice lattice(3);
  const int q = lattice.data_index({1, 1});
  std::vector<Pauli> error(
      static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
  error[static_cast<std::size_t>(q)] = Pauli::X;
  const auto flips = edge_flips(lattice, GraphKind::Z, error);
  const std::vector<char> empty(flips.size(), 0);
  EXPECT_FALSE(evaluate_correction(lattice, GraphKind::Z, flips, empty).valid);
}

TEST(EvaluateCorrection, ResidualIsTheXorOfFlipsAndCorrection) {
  const SurfaceCodeLattice lattice(5);
  const std::size_t n = lattice.graph(GraphKind::Z).num_edges();
  std::vector<char> flips(n, 0);
  std::vector<char> correction(n, 0);
  flips[0] = flips[2] = 1;
  correction[0] = correction[1] = 1;
  EvalScratch scratch;
  evaluate_correction(lattice, GraphKind::Z, flips, correction, scratch);
  std::vector<char> expected(n, 0);
  expected[1] = expected[2] = 1;
  EXPECT_EQ(scratch.residual, expected);

  // The outcome is a function of that residual alone: a perfect
  // correction, one off by the logical operator and a random one each
  // judge like the residual against no correction at all.
  util::Rng rng(9);
  const std::vector<char> none(n, 0);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    for (int trial = 0; trial < 20; ++trial) {
      for (auto& f : flips) f = rng.bernoulli(0.1) ? 1 : 0;
      std::vector<char> off_by_logical = flips;
      for (int q : lattice.logical_operator(kind))
        off_by_logical[static_cast<std::size_t>(q)] ^= 1;
      std::vector<char> random(n);
      for (auto& c : random) c = rng.bernoulli(0.1) ? 1 : 0;
      for (const auto* c : {&flips, &off_by_logical, &random}) {
        std::vector<char> residual(n);
        for (std::size_t e = 0; e < n; ++e)
          residual[e] = static_cast<char>(flips[e] ^ (*c)[e]);
        const auto direct = evaluate_correction(lattice, kind, flips, *c);
        const auto folded = evaluate_correction(lattice, kind, residual, none);
        EXPECT_EQ(direct.valid, folded.valid);
        EXPECT_EQ(direct.logical, folded.logical);
      }
      EXPECT_TRUE(evaluate_correction(lattice, kind, flips, flips).success());
      const auto logical =
          evaluate_correction(lattice, kind, flips, off_by_logical);
      EXPECT_TRUE(logical.valid);
      EXPECT_TRUE(logical.logical);
    }
  }
  EXPECT_THROW(evaluate_correction(lattice, GraphKind::Z, flips, {1, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace surfnet::qec
