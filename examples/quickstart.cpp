// Quickstart: build a sparse matrix, factorize it with the multifrontal
// solver, solve a system, and look at the memory statistics the library
// is all about.
#include <cmath>
#include <iostream>

#include "memfront/frontal/arena.hpp"
#include "memfront/solver/multifrontal.hpp"
#include "memfront/sparse/generators.hpp"

int main() {
  using namespace memfront;

  // A 3D grid operator, 7-point stencil, diagonally dominant values.
  const CscMatrix a = grid_matrix({.nx = 12, .ny = 12, .nz = 12, .dof = 1,
                                   .wide_stencil = false,
                                   .symmetric_values = true, .seed = 1});
  std::cout << "matrix: n=" << a.nrows() << " nnz=" << a.nnz() << "\n";

  // Analysis (AMD ordering) + numeric factorization.
  AnalysisOptions options;
  options.ordering = OrderingKind::kAmd;
  options.symmetric = true;  // LDL^T path with triangular storage model
  MultifrontalSolver solver(a, options);
  solver.factorize();

  const Analysis& an = solver.analysis();
  std::cout << "assembly tree: " << an.tree.num_nodes() << " nodes, "
            << an.tree.total_flops() << " flops\n"
            << "factor entries: " << an.tree.total_factor_entries() << "\n"
            // The paper's model counts triangular entries for LDL^T; the
            // real ledger holds full-square doubles, and in core its peak
            // equals the physical prediction exactly.
            << "sequential stack peak (model): " << an.memory.peak
            << " entries\n"
            << "active memory peak (predicted): "
            << predict_arena_peak(an.tree, an.traversal) << " doubles\n"
            << "active memory peak (ledger): "
            << solver.factorization().stats.arena_peak_doubles
            << " doubles\n";

  // Solve A x = b for a known solution and report the error.
  std::vector<double> xtrue(static_cast<std::size_t>(a.nrows()));
  for (std::size_t i = 0; i < xtrue.size(); ++i)
    xtrue[i] = std::sin(static_cast<double>(i));
  std::vector<double> b(xtrue.size());
  a.multiply(xtrue, b);
  const std::vector<double> x = solver.solve(b);
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x[i] - xtrue[i]));
  std::cout << "max |x - x_true| = " << err << "\n";
  return err < 1e-8 ? 0 : 1;
}
