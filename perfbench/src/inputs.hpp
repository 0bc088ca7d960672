// Seeded benchmark inputs.
//
// The Table-1 generator specs of sparse/problems.cpp at scale 1.0. The
// workload seed goes into GridSpec::seed, which draws only the values of
// the grid families; their patterns, and so every flop and byte count,
// stay those of Table 1. CircuitSpec::seed and LpSpec::seed also draw
// the pattern (TWOTONE's flop count spans 8.9-20 GFlop across seeds), so
// those two keep their Table-1 seeds: a benchmark whose work changed
// with the seed could not hold a timing bound across seeded runs. Seed 0
// reproduces make_problem(id, 1.0) exactly. The library only ever sees
// the generated matrices.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "memfront/sparse/generators.hpp"
#include "memfront/sparse/problems.hpp"

namespace perfbench {

/// Generator seed for a Table-1 problem under workload seed `seed`.
inline std::uint64_t spec_seed(std::uint64_t table_seed, std::uint64_t seed) {
  if (seed == 0) return table_seed;
  std::uint64_t z = table_seed + 0x9e3779b97f4a7c15ULL * seed;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The Table-1 matrix `id` at scale 1.0 under workload seed `seed`.
inline memfront::CscMatrix table1_matrix(memfront::ProblemId id,
                                         std::uint64_t seed) {
  using namespace memfront;
  switch (id) {
    case ProblemId::kBmwCra1:
      return grid_matrix({.nx = 11, .ny = 11, .nz = 13, .dof = 3,
                          .wide_stencil = true, .symmetric_values = true,
                          .seed = spec_seed(11, seed)});
    case ProblemId::kGupta3:
      return lp_normal_equations({.nrows = 2200, .ncols = 6000,
                                  .col_degree = 3, .heavy_cols = 10,
                                  .heavy_degree = 110, .seed = 13});
    case ProblemId::kMsdoor:
      return grid_matrix({.nx = 58, .ny = 110, .nz = 1, .dof = 4,
                          .wide_stencil = true, .symmetric_values = true,
                          .seed = spec_seed(17, seed)});
    case ProblemId::kShip003:
      return grid_matrix({.nx = 27, .ny = 27, .nz = 6, .dof = 3,
                          .wide_stencil = true, .symmetric_values = true,
                          .seed = spec_seed(19, seed)});
    case ProblemId::kPre2:
      return circuit_matrix({.base_nodes = 4200, .harmonics = 7,
                             .avg_degree = 4, .nonlinear_frac = 0.06,
                             .unsym_frac = 0.35, .seed = 23});
    case ProblemId::kTwotone:
      return circuit_matrix({.base_nodes = 2400, .harmonics = 5,
                             .avg_degree = 4, .nonlinear_frac = 0.10,
                             .unsym_frac = 0.35, .seed = 29});
    case ProblemId::kUltrasound3:
      return grid_matrix({.nx = 20, .ny = 20, .nz = 20, .dof = 2,
                          .wide_stencil = true, .symmetric_values = false,
                          .seed = spec_seed(31, seed)});
    case ProblemId::kXenon2:
      return grid_matrix({.nx = 26, .ny = 26, .nz = 26, .dof = 1,
                          .wide_stencil = true, .symmetric_values = false,
                          .seed = spec_seed(37, seed)});
  }
  return {};
}

inline bool table1_symmetric(memfront::ProblemId id) {
  using memfront::ProblemId;
  return id == ProblemId::kBmwCra1 || id == ProblemId::kGupta3 ||
         id == ProblemId::kMsdoor || id == ProblemId::kShip003;
}

/// n x nrhs right-hand-side panel, column-major, uniform in [-1, 1).
inline std::vector<double> rhs_panel(memfront::index_t n,
                                     memfront::index_t nrhs,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(spec_seed(0x5eed, seed + 1));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(nrhs));
  for (double& v : b) v = dist(rng);
  return b;
}

}  // namespace perfbench
