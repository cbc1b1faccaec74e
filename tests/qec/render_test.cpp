#include "qec/render.h"

#include <gtest/gtest.h>

#include "qec/lattice.h"
#include "qec/syndrome.h"
#include "util/rng.h"

namespace surfnet::qec {
namespace {

int count_char(const std::string& s, char ch) {
  int n = 0;
  for (char c : s)
    if (c == ch) ++n;
  return n;
}

TEST(Render, LatticeShowsAllQubitsAndStabilizers) {
  const SurfaceCodeLattice lattice(3);
  const auto art = render_lattice(lattice);
  EXPECT_EQ(count_char(art, 'o'), lattice.num_data_qubits());
  EXPECT_EQ(count_char(art, 'Z'), lattice.num_measure_z());
  EXPECT_EQ(count_char(art, 'X'), lattice.num_measure_x());
}

TEST(Render, CoreCrossIsMarked) {
  const SurfaceCodeLattice lattice(4);
  const auto art = render_core(lattice);
  EXPECT_EQ(count_char(art, 'C'), 7);  // the paper's 7-qubit Core
  EXPECT_EQ(count_char(art, 'o'), 18);
}

TEST(Render, ErrorsAndSyndromesAppear) {
  const SurfaceCodeLattice lattice(3);
  ErrorSample sample;
  sample.error.assign(static_cast<std::size_t>(lattice.num_data_qubits()),
                      Pauli::I);
  sample.erased.assign(static_cast<std::size_t>(lattice.num_data_qubits()),
                       0);
  const int q = lattice.data_index({1, 1});  // bulk: two Z-syndromes
  sample.error[static_cast<std::size_t>(q)] = Pauli::X;
  sample.erased[0] = 1;
  const auto art = render_errors(lattice, GraphKind::Z, sample);
  EXPECT_EQ(count_char(art, 'X'), 1);
  EXPECT_EQ(count_char(art, '#'), 1);
  EXPECT_EQ(count_char(art, '*'), 2);
}

TEST(Render, CorrectionMarksAppear) {
  const SurfaceCodeLattice lattice(3);
  ErrorSample sample;
  sample.error.assign(static_cast<std::size_t>(lattice.num_data_qubits()),
                      Pauli::I);
  sample.erased.assign(static_cast<std::size_t>(lattice.num_data_qubits()),
                       0);
  std::vector<char> correction(
      static_cast<std::size_t>(lattice.num_data_qubits()), 0);
  correction[3] = 1;
  const auto art =
      render_errors(lattice, GraphKind::Z, sample, &correction);
  EXPECT_EQ(count_char(art, '+'), 1);
}

// Every picture is a (2d-1) x (2d-1) grid of one-character cells, a space
// between cells and a newline after each row.
char cell(const std::string& art, int d, Coord rc) {
  const int n = 2 * d - 1;
  return art[static_cast<std::size_t>(rc.r * 2 * n + 2 * rc.c)];
}

class RenderTest : public ::testing::TestWithParam<int> {};

TEST_P(RenderTest, LatticeFillsEverySiteOfTheGrid) {
  // Data qubits sit where r + c is even, measure-Z at (even r, odd c) and
  // measure-X at (odd r, even c); together they tile the whole grid.
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  const auto art = render_lattice(lattice);
  const int n = 2 * d - 1;
  ASSERT_EQ(art.size(), static_cast<std::size_t>(2 * n * n));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(art[static_cast<std::size_t>((r + 1) * 2 * n - 1)], '\n');
    for (int c = 0; c < n; ++c) {
      const char expected = (r + c) % 2 == 0 ? 'o' : (r % 2 == 0 ? 'Z' : 'X');
      EXPECT_EQ(cell(art, d, {r, c}), expected)
          << "d=" << d << " at " << r << "," << c;
    }
  }
}

TEST_P(RenderTest, MarksLandOnTheirQubitsAndStabilizers) {
  // A '*' must sit on exactly the stabilizers of `kind` whose neighbouring
  // data qubits hold an odd number of flips; each data qubit shows its
  // erasure, its Pauli letter, a correction mark or '.'.
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  const int n = 2 * d - 1;
  const auto profile =
      NoiseProfile::uniform(lattice.num_data_qubits(), 0.2, 0.1);
  util::Rng rng(900 + static_cast<unsigned>(d));
  for (int t = 0; t < 20; ++t) {
    const auto sample = sample_errors(profile, rng);
    std::vector<char> correction(sample.error.size(), 0);
    for (std::size_t q = 0; q < correction.size(); q += 3) correction[q] = 1;
    for (auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto art = render_errors(lattice, kind, sample, &correction);
      for (int q = 0; q < lattice.num_data_qubits(); ++q) {
        const auto i = static_cast<std::size_t>(q);
        char expected = correction[i] ? '+' : '.';
        if (sample.erased[i])
          expected = '#';
        else if (sample.error[i] != Pauli::I)
          expected = to_string(sample.error[i])[0];
        EXPECT_EQ(cell(art, d, lattice.data_coord(q)), expected)
            << "d=" << d << " qubit " << q;
      }
      const auto flips = edge_flips(lattice, kind, sample.error);
      const int stabilizer_row_parity = kind == GraphKind::Z ? 0 : 1;
      int stars = 0;
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          if ((r + c) % 2 == 0) continue;  // a data qubit
          int parity = 0;
          for (Coord nb : {Coord{r - 1, c}, Coord{r + 1, c}, Coord{r, c - 1},
                           Coord{r, c + 1}}) {
            const int q = lattice.data_index(nb);
            if (q >= 0) parity ^= flips[static_cast<std::size_t>(q)];
          }
          const bool marked = r % 2 == stabilizer_row_parity && parity == 1;
          EXPECT_EQ(cell(art, d, {r, c}), marked ? '*' : ' ')
              << "d=" << d << " at " << r << "," << c;
          stars += marked;
        }
      }
      const auto syndrome = syndrome_vertices(lattice.graph(kind), flips);
      EXPECT_EQ(stars, static_cast<int>(syndrome.size()));
    }
  }
}

TEST_P(RenderTest, CoreMarksExactlyTheCoreQubits) {
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  const auto art = render_core(lattice);
  const auto partition = lattice.core_partition();
  for (int q = 0; q < lattice.num_data_qubits(); ++q)
    EXPECT_EQ(cell(art, d, lattice.data_coord(q)),
              partition.is_core[static_cast<std::size_t>(q)] ? 'C' : 'o')
        << "d=" << d << " qubit " << q;
  EXPECT_EQ(count_char(art, 'C'), 2 * d - 1);
}

INSTANTIATE_TEST_SUITE_P(Distances, RenderTest,
                         ::testing::Values(2, 3, 4, 5, 7, 9, 11));

}  // namespace
}  // namespace surfnet::qec
