#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "memfront/frontal/arena.hpp"
#include "memfront/solver/multifrontal.hpp"
#include "memfront/sparse/generators.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/support/rng.hpp"

namespace memfront {
namespace {

std::vector<double> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.real(-1.0, 1.0);
  return x;
}

/// Relative residual ||Ax - b||_inf / ||b||_inf.
double solve_and_residual(const CscMatrix& a, const AnalysisOptions& opt) {
  MultifrontalSolver solver(a, opt);
  solver.factorize();
  const std::vector<double> xtrue = random_vector(a.nrows(), 99);
  std::vector<double> b(static_cast<std::size_t>(a.nrows()));
  a.multiply(xtrue, b);
  const std::vector<double> x = solver.solve(b);
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - xtrue[i]));
    scale = std::max(scale, std::abs(xtrue[i]));
  }
  return err / scale;
}

TEST(Solver, Figure1MatrixSolves) {
  const CscMatrix a = figure1_matrix();
  AnalysisOptions opt;
  opt.symmetric = true;
  opt.ordering = OrderingKind::kNatural;
  EXPECT_LT(solve_and_residual(a, opt), 1e-10);
}

class SolverResidual
    : public ::testing::TestWithParam<std::tuple<ProblemId, OrderingKind>> {};

TEST_P(SolverResidual, SmallScaleAccurate) {
  const auto [pid, kind] = GetParam();
  const Problem p = make_problem(pid, 0.16);
  AnalysisOptions opt;
  opt.ordering = kind;
  opt.symmetric = p.symmetric;
  EXPECT_LT(solve_and_residual(p.matrix, opt), 1e-8)
      << problem_name(pid) << " n=" << p.matrix.nrows();
}

INSTANTIATE_TEST_SUITE_P(
    ProblemsTimesOrderings, SolverResidual,
    ::testing::Combine(::testing::Values(ProblemId::kGupta3,
                                         ProblemId::kTwotone,
                                         ProblemId::kXenon2,
                                         ProblemId::kMsdoor),
                       ::testing::Values(OrderingKind::kAmd,
                                         OrderingKind::kAmf,
                                         OrderingKind::kNestedDissection,
                                         OrderingKind::kPord,
                                         OrderingKind::kNatural)),
    [](const auto& info) {
      return problem_name(std::get<0>(info.param)) + std::string("_") +
             ordering_name(std::get<1>(info.param));
    });

TEST(Solver, LedgerPeakMatchesPrediction) {
  for (ProblemId pid : {ProblemId::kXenon2, ProblemId::kMsdoor,
                        ProblemId::kTwotone}) {
    const Problem p = make_problem(pid, 0.2);
    AnalysisOptions opt;
    opt.ordering = OrderingKind::kAmd;
    opt.symmetric = p.symmetric;
    MultifrontalSolver solver(p.matrix, opt);
    solver.factorize();
    EXPECT_EQ(solver.factorization().stats.arena_peak_doubles,
              predict_arena_peak(solver.analysis().tree,
                                 solver.analysis().traversal))
        << problem_name(pid);
  }
}

TEST(Solver, FactorEntriesMatchModel) {
  const Problem p = make_problem(ProblemId::kTwotone, 0.18);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  MultifrontalSolver solver(p.matrix, opt);
  solver.factorize();
  EXPECT_EQ(solver.factorization().stats.factor_entries,
            solver.analysis().tree.total_factor_entries());
}

TEST(Solver, NoPerturbationsOnDominantMatrices) {
  const Problem p = make_problem(ProblemId::kXenon2, 0.18);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmf;
  MultifrontalSolver solver(p.matrix, opt);
  solver.factorize();
  EXPECT_EQ(solver.factorization().stats.perturbations, 0);
}

TEST(Solver, LiuReorderPreservesNumerics) {
  const Problem p = make_problem(ProblemId::kUltrasound3, 0.14);
  for (bool liu : {false, true}) {
    AnalysisOptions opt;
    opt.ordering = OrderingKind::kAmd;
    opt.liu_reorder = liu;
    EXPECT_LT(solve_and_residual(p.matrix, opt), 1e-8) << "liu=" << liu;
  }
}

TEST(Solver, LiuReorderNeverIncreasesPeak) {
  const Problem p = make_problem(ProblemId::kPre2, 0.2);
  AnalysisOptions with;
  with.ordering = OrderingKind::kAmf;
  with.liu_reorder = true;
  with.want_structure = false;
  AnalysisOptions without = with;
  without.liu_reorder = false;
  const Analysis a1 = analyze(p.matrix, with);
  const Analysis a2 = analyze(p.matrix, without);
  EXPECT_LE(a1.memory.peak, a2.memory.peak);
}

TEST(Solver, SplitTreeStillSolves) {
  // The static splitting of Section 6 must not change the numerics.
  const Problem p = make_problem(ProblemId::kTwotone, 0.16);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmf;
  opt.split_master_threshold = 5'000;  // aggressive: force many chains
  MultifrontalSolver solver(p.matrix, opt);
  EXPECT_GT(solver.analysis().num_split_nodes, 0);
  solver.factorize();
  const std::vector<double> xtrue = random_vector(p.matrix.nrows(), 3);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()));
  p.matrix.multiply(xtrue, b);
  const std::vector<double> x = solver.solve(b);
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x[i] - xtrue[i]));
  EXPECT_LT(err, 1e-8);
}

TEST(Solver, SymmetricSplitTreeSolves) {
  const Problem p = make_problem(ProblemId::kGupta3, 0.14);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmd;
  opt.symmetric = true;
  opt.split_master_threshold = 3'000;
  MultifrontalSolver solver(p.matrix, opt);
  solver.factorize();
  const std::vector<double> xtrue = random_vector(p.matrix.nrows(), 4);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()));
  p.matrix.multiply(xtrue, b);
  const std::vector<double> x = solver.solve(b);
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x[i] - xtrue[i]));
  EXPECT_LT(err, 1e-8);
}

TEST(Solver, SolveBeforeFactorizeThrows) {
  const CscMatrix a = figure1_matrix();
  MultifrontalSolver solver(a, {});
  const std::vector<double> b(6, 1.0);
  EXPECT_THROW(solver.solve(b), std::invalid_argument);
}

TEST(Solver, MultipleRhsReuseFactorization) {
  const Problem p = make_problem(ProblemId::kXenon2, 0.12);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  MultifrontalSolver solver(p.matrix, opt);
  solver.factorize();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<double> xtrue = random_vector(p.matrix.nrows(), seed);
    std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()));
    p.matrix.multiply(xtrue, b);
    const std::vector<double> x = solver.solve(b);
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      err = std::max(err, std::abs(x[i] - xtrue[i]));
    EXPECT_LT(err, 1e-8) << "rhs " << seed;
  }
}

}  // namespace
}  // namespace memfront
