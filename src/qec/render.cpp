#include "qec/render.h"

#include "qec/syndrome.h"

namespace surfnet::qec {

namespace {

/// Character canvas over the lattice's (2d-1) x (2d-1) site grid.
class Canvas {
 public:
  explicit Canvas(const SurfaceCodeLattice& lattice)
      : rows_(2 * lattice.distance() - 1), cols_(rows_) {
    cells_.assign(static_cast<std::size_t>(rows_) * cols_, ' ');
  }

  void put(Coord rc, char ch) {
    if (rc.r < 0 || rc.c < 0 || rc.r >= rows_ || rc.c >= cols_) return;
    cells_[static_cast<std::size_t>(rc.r) * cols_ + rc.c] = ch;
  }

  std::string str() const {
    std::string out;
    out.reserve(static_cast<std::size_t>(rows_) * (2 * cols_ + 1));
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) {
        out += cells_[static_cast<std::size_t>(r) * cols_ + c];
        if (c + 1 < cols_) out += ' ';
      }
      out += '\n';
    }
    return out;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<char> cells_;
};

/// Grid coordinate of a measurement vertex, or (-1,-1) (off the canvas)
/// for a virtual boundary vertex.
Coord vertex_coord(const SurfaceCodeLattice& lattice, GraphKind kind,
                   int vertex) {
  const int d = lattice.distance();
  if (vertex >= lattice.graph(kind).num_real_vertices()) return {-1, -1};
  if (kind == GraphKind::Z) {
    // measure-Z at (even r, odd c): id = (r/2)*(d-1) + (c-1)/2
    const int row = vertex / (d - 1);
    const int col = vertex % (d - 1);
    return {2 * row, 2 * col + 1};
  }
  // measure-X at (odd r, even c): id = ((r-1)/2)*d + c/2
  const int row = vertex / d;
  const int col = vertex % d;
  return {2 * row + 1, 2 * col};
}

}  // namespace

std::string render_lattice(const SurfaceCodeLattice& lattice) {
  Canvas canvas(lattice);
  for (int q = 0; q < lattice.num_data_qubits(); ++q)
    canvas.put(lattice.data_coord(q), 'o');
  for (int v = 0; v < lattice.num_measure_z(); ++v)
    canvas.put(vertex_coord(lattice, GraphKind::Z, v), 'Z');
  for (int v = 0; v < lattice.num_measure_x(); ++v)
    canvas.put(vertex_coord(lattice, GraphKind::X, v), 'X');
  return canvas.str();
}

std::string render_errors(const SurfaceCodeLattice& lattice, GraphKind kind,
                          const ErrorSample& sample,
                          const std::vector<char>* correction) {
  Canvas canvas(lattice);
  for (int q = 0; q < lattice.num_data_qubits(); ++q) {
    const Coord rc = lattice.data_coord(q);
    char ch = '.';
    if (sample.erased[static_cast<std::size_t>(q)]) {
      ch = '#';
    } else if (sample.error[static_cast<std::size_t>(q)] != Pauli::I) {
      ch = to_string(sample.error[static_cast<std::size_t>(q)])[0];
    }
    if (correction != nullptr &&
        (*correction)[static_cast<std::size_t>(q)] && ch == '.')
      ch = '+';
    canvas.put(rc, ch);
  }

  const auto flips = edge_flips(lattice, kind, sample.error);
  for (int v : syndrome_vertices(lattice.graph(kind), flips))
    canvas.put(vertex_coord(lattice, kind, v), '*');
  return canvas.str();
}

std::string render_core(const SurfaceCodeLattice& lattice) {
  const auto partition = lattice.core_partition();
  Canvas canvas(lattice);
  for (int q = 0; q < lattice.num_data_qubits(); ++q)
    canvas.put(lattice.data_coord(q),
               partition.is_core[static_cast<std::size_t>(q)] ? 'C' : 'o');
  return canvas.str();
}

}  // namespace surfnet::qec
