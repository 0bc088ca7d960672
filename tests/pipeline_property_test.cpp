// Randomized end-to-end properties over matrices *outside* the Table-1
// generator families: arbitrary sparse diagonally-dominant patterns,
// disconnected graphs, dense rows — through analysis, numeric solve, and
// the parallel simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "memfront/core/experiment.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/solver/multifrontal.hpp"
#include "memfront/sparse/coo.hpp"
#include "memfront/support/rng.hpp"

namespace memfront {
namespace {

/// Random diagonally dominant matrix; optionally symmetric values,
/// optionally disconnected (two blocks), optionally with a dense row.
CscMatrix random_matrix(index_t n, double density, bool symmetric,
                        bool disconnected, bool dense_row,
                        std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  const auto edges =
      static_cast<count_t>(density * static_cast<double>(n) * n / 2);
  const index_t half = n / 2;
  for (count_t e = 0; e < edges; ++e) {
    index_t u, v;
    if (disconnected && rng.below(2) == 0) {
      u = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(half)));
      v = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(half)));
    } else if (disconnected) {
      u = half + static_cast<index_t>(
                     rng.below(static_cast<std::uint64_t>(n - half)));
      v = half + static_cast<index_t>(
                     rng.below(static_cast<std::uint64_t>(n - half)));
    } else {
      u = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
      v = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    }
    if (u == v) continue;
    const double w = rng.real(-1.0, 1.0);
    if (symmetric) {
      coo.add_symmetric(u, v, w);
    } else {
      coo.add(u, v, w);
      if (rng.below(2) == 0) coo.add(v, u, rng.real(-1.0, 1.0));
    }
  }
  if (dense_row) {
    for (index_t j = 1; j < n; j += 2) {
      const double w = rng.real(-0.1, 0.1);
      if (symmetric)
        coo.add_symmetric(0, j, w);
      else
        coo.add(0, j, w);
    }
  }
  // Dominant diagonal.
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  const CscMatrix tmp = coo.to_csc();
  for (index_t j = 0; j < n; ++j) {
    auto rows = tmp.column(j);
    auto vals = tmp.column_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k)
      if (rows[k] != j) rowsum[rows[k]] += std::abs(vals[k]);
  }
  for (index_t i = 0; i < n; ++i)
    coo.add(i, i, rowsum[static_cast<std::size_t>(i)] + 1.0);
  return coo.to_csc();
}

struct PipelineCase {
  std::uint64_t seed;
  bool symmetric;
  bool disconnected;
  bool dense_row;
  OrderingKind ordering;
};

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, SolveAndSimulate) {
  Rng meta(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int trial = 0; trial < 4; ++trial) {
    const PipelineCase c{
        .seed = meta.next(),
        .symmetric = meta.below(2) == 0,
        .disconnected = meta.below(3) == 0,
        .dense_row = meta.below(3) == 0,
        .ordering = std::vector<OrderingKind>{
            OrderingKind::kAmd, OrderingKind::kAmf,
            OrderingKind::kNestedDissection, OrderingKind::kPord,
            OrderingKind::kRcm}[meta.below(5)],
    };
    const index_t n = 60 + static_cast<index_t>(meta.below(140));
    const CscMatrix a =
        random_matrix(n, 0.04, c.symmetric, c.disconnected, c.dense_row,
                      c.seed);
    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " sym=" << c.symmetric << " disc="
                 << c.disconnected << " dense=" << c.dense_row << " ord="
                 << ordering_name(c.ordering) << " seed=" << c.seed);

    // Numeric path: residual + ledger peak parity.
    AnalysisOptions opt;
    opt.ordering = c.ordering;
    opt.symmetric = c.symmetric;
    MultifrontalSolver solver(a, opt);
    solver.factorize();
    EXPECT_EQ(solver.factorization().stats.arena_peak_doubles,
              predict_arena_peak(solver.analysis().tree,
                                 solver.analysis().traversal));
    std::vector<double> xtrue(static_cast<std::size_t>(n));
    Rng vr(c.seed + 1);
    for (double& v : xtrue) v = vr.real(-1, 1);
    std::vector<double> b(static_cast<std::size_t>(n));
    a.multiply(xtrue, b);
    const std::vector<double> x = solver.solve(b);
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      err = std::max(err, std::abs(x[i] - xtrue[i]));
    EXPECT_LT(err, 1e-7);

    // Parallel path: every strategy completes and conserves factors.
    for (SlaveStrategy ss : {SlaveStrategy::kWorkload,
                             SlaveStrategy::kMemoryImproved}) {
      ExperimentSetup setup;
      setup.nprocs = 4;
      setup.ordering = c.ordering;
      setup.symmetric = c.symmetric;
      setup.slave_strategy = ss;
      setup.task_strategy = TaskStrategy::kMemoryAware;
      const PreparedExperiment prepared = prepare_experiment(a, setup);
      const ExperimentOutcome o = run_prepared(prepared, setup);
      count_t factors = 0;
      for (const auto& pr : o.parallel.procs) factors += pr.factor_entries;
      EXPECT_EQ(factors, prepared.analysis->tree.total_factor_entries());
      EXPECT_GE(o.max_stack_peak, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range(1, 9));

TEST(PipelineProperty, SingleProcessorParityOnRandomMatrices) {
  Rng meta(424242);
  for (int trial = 0; trial < 6; ++trial) {
    const CscMatrix a = random_matrix(
        80 + static_cast<index_t>(meta.below(80)), 0.05,
        meta.below(2) == 0, false, false, meta.next());
    ExperimentSetup setup;
    setup.nprocs = 1;
    setup.ordering = OrderingKind::kAmd;
    const ExperimentOutcome o = run_experiment(a, setup);
    EXPECT_EQ(o.max_stack_peak, o.sequential_peak) << "trial " << trial;
  }
}

TEST(PipelineProperty, DiagonalMatrixDegenerates) {
  // Pure diagonal: every node is a 1x1 leaf root.
  CooMatrix coo(30, 30);
  for (index_t i = 0; i < 30; ++i) coo.add(i, i, 2.0);
  const CscMatrix a = coo.to_csc();
  MultifrontalSolver solver(a, {});
  solver.factorize();
  const std::vector<double> b(30, 4.0);
  const std::vector<double> x = solver.solve(b);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_EQ(solver.analysis().memory.peak, 1);  // one 1x1 front at a time
}

TEST(PipelineProperty, ArrowheadMatrixDenseRoot) {
  // Arrowhead: AMD defers the hub; the root front contains it.
  const index_t n = 120;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 0.0);
  for (index_t i = 1; i < n; ++i) coo.add_symmetric(0, i, -1.0);
  // Dominate diagonal.
  CooMatrix coo2(n, n);
  for (index_t i = 0; i < n; ++i)
    coo2.add(i, i, i == 0 ? static_cast<double>(n) : 2.0);
  for (index_t i = 1; i < n; ++i) coo2.add_symmetric(0, i, -1.0);
  const CscMatrix a = coo2.to_csc();
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmd;
  opt.symmetric = true;
  MultifrontalSolver solver(a, opt);
  solver.factorize();
  std::vector<double> xtrue(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(xtrue, b);
  const std::vector<double> x = solver.solve(b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-10);
}

}  // namespace
}  // namespace memfront
