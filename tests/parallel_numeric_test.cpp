// Numeric correctness harness of the blocked/parallel factorization
// layer, per the acceptance criteria:
//   (a) pivot sequences (and every stored factor value) bit-identical to
//       the pre-blocking scalar kernels,
//   (b) backward error ||Ax-b|| / (||A|| ||x||) below 1e-10 across all
//       Table-1 problems x LU/LDLT x serial/parallel,
//   (c) the parallel factorization is deterministic given a fixed subtree
//       assignment (and in fact bit-identical to the serial driver),
// plus the ledger-peak guarantees: the serial in-core ledger peak equals
// the predictor on every Table-1 problem x LU/LDLT, and the parallel
// ledger reports the peak it reached.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "memfront/frontal/arena.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/sparse/coo.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/support/rng.hpp"

namespace memfront {
namespace {

constexpr double kScale = 0.18;
constexpr double kBackwardErrorBound = 1e-10;

std::vector<double> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.real(-1.0, 1.0);
  return x;
}

/// Infinity norm of A (max absolute row sum).
double matrix_norm_inf(const CscMatrix& a) {
  std::vector<double> row_sum(static_cast<std::size_t>(a.nrows()), 0.0);
  for (index_t j = 0; j < a.ncols(); ++j) {
    auto rows = a.column(j);
    auto vals = a.column_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k)
      row_sum[static_cast<std::size_t>(rows[k])] += std::abs(vals[k]);
  }
  double norm = 0.0;
  for (double v : row_sum) norm = std::max(norm, v);
  return norm;
}

double backward_error(const CscMatrix& a, const Analysis& analysis,
                      const Factorization& fact) {
  const std::vector<double> xtrue = random_vector(a.nrows(), 7);
  std::vector<double> b(static_cast<std::size_t>(a.nrows()));
  a.multiply(xtrue, b);
  const std::vector<double> x = solve_factorized(analysis, fact, b);
  double xnorm = 0.0;
  for (double v : x) xnorm = std::max(xnorm, std::abs(v));
  return a.residual_inf(x, b) / (matrix_norm_inf(a) * xnorm);
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_factorizations_bitwise_equal(const Factorization& a,
                                         const Factorization& b,
                                         const std::string& label) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  EXPECT_EQ(a.row_of, b.row_of) << label << ": pivot sequences differ";
  EXPECT_EQ(a.stats.perturbations, b.stats.perturbations) << label;
  EXPECT_EQ(a.stats.factor_entries, b.stats.factor_entries) << label;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(a.nodes[i].panel, b.nodes[i].panel))
        << label << ": panel of node " << i;
    ASSERT_TRUE(bitwise_equal(a.nodes[i].u12, b.nodes[i].u12))
        << label << ": u12 of node " << i;
  }
}

struct Case {
  ProblemId id;
  bool ldlt;  // symmetric (LDLT) or unsymmetric (LU) factorization
};

std::vector<Case> harness_cases() {
  std::vector<Case> cases;
  for (ProblemId id : all_problem_ids()) {
    const Problem p = make_problem(id, 0.05);  // cheap probe for symmetry
    cases.push_back({id, false});              // LU runs on everything
    if (p.symmetric) cases.push_back({id, true});
  }
  return cases;
}

class NumericHarness : public ::testing::TestWithParam<Case> {};

TEST_P(NumericHarness, SerialParallelReferenceAgreeAndResidualsTiny) {
  const auto [pid, ldlt] = GetParam();
  const Problem p = make_problem(pid, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmd;
  opt.symmetric = ldlt;
  const Analysis analysis = analyze(p.matrix, opt);

  // (a) blocked kernels == pre-blocking scalar kernels, bit for bit.
  const Factorization serial = numeric_factorize(analysis);
  NumericOptions reference_options;
  reference_options.kernel = FrontalKernel::kReference;
  const Factorization reference =
      numeric_factorize(analysis, reference_options);
  expect_factorizations_bitwise_equal(serial, reference,
                                      "blocked vs reference");

  // (b) backward error, serial.
  EXPECT_LT(backward_error(p.matrix, analysis, serial), kBackwardErrorBound)
      << problem_name(pid) << (ldlt ? " LDLT" : " LU") << " serial";

  // (c) parallel: bit-identical to serial and to a re-run with the same
  // subtree assignment.
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  popt.nprocs = 4;  // fixed assignment regardless of the host
  ParallelNumericStats pstats;
  const Factorization parallel =
      parallel_numeric_factorize(analysis, popt, &pstats);
  expect_factorizations_bitwise_equal(serial, parallel,
                                      "serial vs parallel");
  const Factorization parallel2 = parallel_numeric_factorize(analysis, popt);
  expect_factorizations_bitwise_equal(parallel, parallel2,
                                      "parallel determinism");
  EXPECT_LT(backward_error(p.matrix, analysis, parallel),
            kBackwardErrorBound)
      << problem_name(pid) << (ldlt ? " LDLT" : " LU") << " parallel";

  // Ledger peaks: the serial in-core ledger charges exactly the LIFO
  // stack discipline, so it equals the prediction; the parallel one
  // depends on the schedule, and both stats report the same value.
  const count_t predicted =
      predict_arena_peak(analysis.tree, analysis.traversal);
  EXPECT_EQ(serial.stats.arena_peak_doubles, predicted);
  EXPECT_EQ(reference.stats.arena_peak_doubles, predicted);
  EXPECT_GT(pstats.total_arena_peak_doubles, 0);
  EXPECT_EQ(parallel.stats.arena_peak_doubles,
            pstats.total_arena_peak_doubles);
  // Some problems legitimately map zero subtrees at small scales (the
  // memory refinement moves everything to the upper part); the driver
  // must cope, so no positivity assertion here.
  EXPECT_EQ(pstats.workers, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, NumericHarness, ::testing::ValuesIn(harness_cases()),
    [](const auto& info) {
      return problem_name(info.param.id) +
             std::string(info.param.ldlt ? "_LDLT" : "_LU");
    });

TEST(ParallelNumeric, SubtreePhaseActuallyRuns) {
  // On a regular 3D problem the Geist-Ng cut must produce whole-subtree
  // tasks (type-1 parallelism), not just upper-part node tasks.
  const Problem p = make_problem(ProblemId::kXenon2, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  const Analysis analysis = analyze(p.matrix, opt);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  ParallelNumericStats stats;
  (void)parallel_numeric_factorize(analysis, popt, &stats);
  EXPECT_GT(stats.num_subtrees, 0);
  EXPECT_GT(stats.num_upper_nodes, 0);
  EXPECT_GT(stats.total_arena_peak_doubles, 0);
}

TEST(ParallelNumeric, SingleWorkerMatchesSerial) {
  const Problem p = make_problem(ProblemId::kTwotone, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  const Analysis analysis = analyze(p.matrix, opt);
  ParallelNumericOptions popt;
  popt.nthreads = 1;
  const Factorization serial = numeric_factorize(analysis);
  const Factorization parallel = parallel_numeric_factorize(analysis, popt);
  expect_factorizations_bitwise_equal(serial, parallel, "one worker");
}

TEST(ParallelNumeric, SerialLedgerPeakOnAForestIsThePrediction) {
  // Disconnected dense blocks under the natural ordering: a forest of
  // five single-front roots. The serial driver runs every root as its
  // own whole-subtree task, largest first, which is not the traversal's
  // order; a root leaves no CB behind, so the peak is still the
  // traversal's: the 120-column front alone.
  const std::vector<index_t> sizes = {8, 40, 16, 120, 64};
  index_t n = 0;
  for (index_t size : sizes) n += size;
  CooMatrix coo(n, n);
  index_t b0 = 0;
  for (index_t size : sizes) {
    for (index_t j = b0; j < b0 + size; ++j)
      for (index_t i = b0; i < b0 + size; ++i)
        coo.add(i, j, i == j ? 2.0 * static_cast<double>(size)
                             : 0.5 + 0.001 * static_cast<double>((i + j) % 7));
    b0 += size;
  }
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNatural;
  const Analysis analysis = analyze(coo.to_csc(), opt);
  ASSERT_EQ(analysis.tree.roots().size(), sizes.size());

  // The one-processor, whole-root mapping the serial driver runs, and
  // the largest-first order its lone worker takes the roots in.
  const Subtrees roots =
      find_subtrees(analysis.tree, analysis.memory, 1,
                    {.balance_factor = 1.0, .memory_balance_factor = 0.0});
  ASSERT_EQ(roots.roots.size(), sizes.size());
  const std::vector<std::vector<index_t>> shares = fold_subtrees(roots, 1);
  std::vector<index_t> lpt_order;
  for (index_t s : shares.front())
    lpt_order.push_back(roots.roots[static_cast<std::size_t>(s)]);
  std::vector<index_t> traversal_order;
  for (index_t i : analysis.traversal)
    if (analysis.tree.parent(i) == kNone) traversal_order.push_back(i);
  EXPECT_NE(lpt_order, traversal_order);

  const Factorization serial = numeric_factorize(analysis);
  EXPECT_EQ(serial.stats.arena_peak_doubles,
            predict_arena_peak(analysis.tree, analysis.traversal));
  EXPECT_EQ(serial.stats.arena_peak_doubles, 120 * 120);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  expect_factorizations_bitwise_equal(
      serial, parallel_numeric_factorize(analysis, popt), "forest");
}

TEST(ParallelNumeric, SubtreeAssignmentIndependentOfWorkerCount) {
  // The *result* never depends on how many workers execute a fixed
  // mapping (nprocs pinned): type-1 subtree tasks and dependency-counted
  // upper tasks write disjoint slots.
  const Problem p = make_problem(ProblemId::kXenon2, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmd;
  const Analysis analysis = analyze(p.matrix, opt);
  ParallelNumericOptions base;
  base.nprocs = 8;
  Factorization first;
  for (unsigned nthreads : {1u, 2u, 4u, 8u}) {
    ParallelNumericOptions popt = base;
    popt.nthreads = nthreads;
    Factorization fact = parallel_numeric_factorize(analysis, popt);
    if (nthreads == 1u)
      first = std::move(fact);
    else
      expect_factorizations_bitwise_equal(first, fact,
                                          "workers=" +
                                              std::to_string(nthreads));
  }
}

TEST(ParallelNumeric, SplitTreeParallelSolves) {
  // Chain-split trees flow through the parallel driver too.
  const Problem p = make_problem(ProblemId::kTwotone, 0.16);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmf;
  opt.split_master_threshold = 5'000;
  const Analysis analysis = analyze(p.matrix, opt);
  ASSERT_GT(analysis.num_split_nodes, 0);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  const Factorization parallel = parallel_numeric_factorize(analysis, popt);
  expect_factorizations_bitwise_equal(numeric_factorize(analysis), parallel,
                                      "split tree");
  EXPECT_LT(backward_error(p.matrix, analysis, parallel), 1e-8);
}

TEST(ParallelNumeric, ReferenceKernelsAlsoAvailable) {
  const Problem p = make_problem(ProblemId::kMsdoor, 0.14);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmd;
  opt.symmetric = true;
  const Analysis analysis = analyze(p.matrix, opt);
  ParallelNumericOptions popt;
  popt.nthreads = 2;
  popt.kernel = FrontalKernel::kReference;
  NumericOptions sopt;
  sopt.kernel = FrontalKernel::kReference;
  expect_factorizations_bitwise_equal(
      numeric_factorize(analysis, sopt),
      parallel_numeric_factorize(analysis, popt), "reference kernels");
}

}  // namespace
}  // namespace memfront
