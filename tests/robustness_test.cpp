// The hardened-execution contracts: deterministic fault schedules, the
// error taxonomy every injected failure must land on, numerical
// breakdown detection + recovery, and graceful worker-pool degradation.
//
//  - The fault registry replays schedules: equal seeds fire equal call
//    sets, at explicit ids and auto-id counters alike.
//  - Every named injection site surfaces as its taxonomy code:
//    coordinator.cb_alloc -> resource_exhausted, front.assemble_nan ->
//    pivot_breakdown, worker.* -> worker_failure (first failure only,
//    pools drain cleanly and the process stays reusable), ooc.write/read
//    -> bounded retries then io_error.
//  - Zero pivots perturb (never divide by zero), the stats report them,
//    and opt-in iterative refinement restores backward error <= 1e-12.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "memfront/core/experiment.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/solver/multifrontal.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/sparse/coo.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"

namespace memfront {
namespace {

constexpr double kScale = 0.18;

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_factors_bitwise_equal(const Factorization& a,
                                  const Factorization& b,
                                  const std::string& label) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  EXPECT_EQ(a.row_of, b.row_of) << label;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(a.nodes[i].panel, b.nodes[i].panel))
        << label << ": panel of node " << i;
    ASSERT_TRUE(bitwise_equal(a.nodes[i].u12, b.nodes[i].u12))
        << label << ": u12 of node " << i;
  }
}

/// A = [[0,1,1],[1,2,0],[1,0,3]]: symmetric, nonsingular, and well
/// conditioned, but the (0,0) pivot is exactly zero under the natural
/// ordering — the LDLT kernels pivot down the diagonal (no swaps), so
/// the static-perturbation path must fire.
CscMatrix zero_pivot_matrix() {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 0.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 2.0);
  coo.add(2, 0, 1.0);
  coo.add(2, 2, 3.0);
  return coo.to_csc();
}

// ---- error taxonomy --------------------------------------------------------

TEST(ErrorTaxonomy, CodesHaveStableNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidInput), "invalid_input");
  EXPECT_STREQ(error_code_name(ErrorCode::kSingularMatrix),
               "singular_matrix");
  EXPECT_STREQ(error_code_name(ErrorCode::kPivotBreakdown),
               "pivot_breakdown");
  EXPECT_STREQ(error_code_name(ErrorCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kIoError), "io_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kWorkerFailure), "worker_failure");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(ErrorTaxonomy, WhatEmbedsLocationCodeAndContext) {
  const SolverError e(ErrorCode::kIoError, "disk gone",
                      std::source_location::current(),
                      ErrorContext{.node = 7, .input_line = -1,
                                   .detail = "entries=42"});
  const std::string what = e.what();
  EXPECT_NE(what.find("io_error"), std::string::npos);
  EXPECT_NE(what.find("disk gone"), std::string::npos);
  EXPECT_NE(what.find("robustness_test.cpp"), std::string::npos);
  EXPECT_NE(what.find("node 7"), std::string::npos);
  EXPECT_NE(what.find("entries=42"), std::string::npos);
  EXPECT_EQ(e.code(), ErrorCode::kIoError);
  EXPECT_EQ(e.context().node, 7);
}

TEST(ErrorTaxonomy, PreTaxonomyCatchContractsHold) {
  // check() failures stay std::logic_error, require() failures stay
  // std::invalid_argument — every pre-existing EXPECT_THROW contract.
  EXPECT_THROW(check(false, "broken"), std::logic_error);
  EXPECT_THROW(require(false, "bad input"), std::invalid_argument);
  EXPECT_THROW(throw SolverError(ErrorCode::kPivotBreakdown, "x"),
               std::runtime_error);
}

TEST(ErrorTaxonomy, StatusFoldsInFlightExceptions) {
  const auto capture = [](auto thrower) {
    try {
      thrower();
    } catch (...) {
      return Status::from_current_exception();
    }
    return Status::success();
  };
  EXPECT_EQ(capture([] { throw SolverError(ErrorCode::kIoError, "d"); }).code,
            ErrorCode::kIoError);
  EXPECT_EQ(capture([] { require(false, "m"); }).code,
            ErrorCode::kInvalidInput);
  EXPECT_EQ(capture([] { check(false, "m"); }).code, ErrorCode::kInternal);
  EXPECT_EQ(capture([] { throw std::bad_alloc(); }).code,
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(capture([] { throw 42; }).code, ErrorCode::kInternal);
  const Status ok = Status::success();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
}

// ---- fault registry determinism --------------------------------------------

std::vector<bool> fire_pattern(const fault::Plan& plan, const char* site,
                               int calls) {
  fault::ScopedPlan scoped(plan);
  std::vector<bool> fired;
  fired.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i)
    fired.push_back(MEMFRONT_FAULT(site, i));
  return fired;
}

TEST(FaultRegistry, ScheduleIsAPureFunctionOfSeedSiteAndId) {
  const fault::Plan plan{.seed = 42, .period = 13, .overrides = {}};
  const std::vector<bool> first = fire_pattern(plan, "test.site", 500);
  const std::vector<bool> replay = fire_pattern(plan, "test.site", 500);
  EXPECT_EQ(first, replay);
  int fires = 0;
  for (bool f : first) fires += f;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 500);

  const fault::Plan other{.seed = 43, .period = 13, .overrides = {}};
  EXPECT_NE(first, fire_pattern(other, "test.site", 500))
      << "seed does not influence the schedule";
  EXPECT_NE(first, fire_pattern(plan, "test.other_site", 500))
      << "site does not influence the schedule";
}

TEST(FaultRegistry, AutoIdCountersResetOnArm) {
  const fault::Plan plan{.seed = 9, .period = 7, .overrides = {}};
  const auto run = [&] {
    fault::ScopedPlan scoped(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(MEMFRONT_FAULT("test.auto"));
    return fired;
  };
  EXPECT_EQ(run(), run()) << "auto-id schedules must replay across arms";
}

TEST(FaultRegistry, DisarmedAndZeroPeriodSitesNeverFire) {
  ASSERT_FALSE(fault::Registry::armed());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(MEMFRONT_FAULT("test.site", i));
  const fault::Plan off{.seed = 1, .period = 0, .overrides = {}};
  const std::vector<bool> fired = fire_pattern(off, "test.site", 100);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), true), 0);
}

TEST(FaultRegistry, OverridesTargetSingleSites) {
  fault::ScopedPlan scoped({.seed = 3,
                            .period = 0,
                            .overrides = {{"test.only_this", 1}}});
  EXPECT_TRUE(MEMFRONT_FAULT("test.only_this", 0));
  EXPECT_FALSE(MEMFRONT_FAULT("test.not_this", 0));
  EXPECT_GT(fault::Registry::global().injected_count(), 0);
}

TEST(FaultRegistry, InjectedCountFeedsObsMetric) {
  const obs::Counter* metric =
      obs::MetricsRegistry::global().find_counter("fault.injected_count");
  const std::int64_t before = metric ? metric->value() : 0;
  {
    fault::ScopedPlan scoped({.seed = 5, .period = 1, .overrides = {}});
    for (int i = 0; i < 10; ++i) (void)MEMFRONT_FAULT("test.metric", i);
    EXPECT_EQ(fault::Registry::global().injected_count(), 10);
  }
  metric =
      obs::MetricsRegistry::global().find_counter("fault.injected_count");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value(), before + 10);
}

// ---- numerical robustness --------------------------------------------------

TEST(NumericalRobustness, AnalyzeRejectsNonFiniteMatrices) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, std::nan(""));
  EXPECT_THROW((void)analyze(coo.to_csc(), {}), std::invalid_argument);
  CooMatrix inf(2, 2);
  inf.add(0, 0, 1.0);
  inf.add(1, 1, std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)analyze(inf.to_csc(), {}), std::invalid_argument);
}

TEST(NumericalRobustness, ZeroPivotPerturbsAndReports) {
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNatural;
  opt.symmetric = true;
  MultifrontalSolver solver(zero_pivot_matrix(), opt);
  solver.factorize();
  const FactorStats& stats = solver.factorization().stats;
  EXPECT_GE(stats.perturbations, 1);
  EXPECT_GE(stats.exact_zero_pivots, 1);
  // The perturbed elimination explodes: 1/1e-12-scale multipliers show
  // up as pivot growth, the signal callers use to trust (or refine) x.
  EXPECT_GT(stats.pivot_growth_max, 1e6);
  for (const auto& node : solver.factorization().nodes)
    for (double v : node.panel) EXPECT_TRUE(std::isfinite(v));
}

TEST(NumericalRobustness, CleanProblemsReportModestGrowthAndNoZeroPivots) {
  const Problem p = make_problem(ProblemId::kMsdoor, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kAmd;
  opt.symmetric = true;
  MultifrontalSolver solver(p.matrix, opt);
  solver.factorize();
  const FactorStats& stats = solver.factorization().stats;
  EXPECT_EQ(stats.exact_zero_pivots, 0);
  EXPECT_GT(stats.pivot_growth_max, 0.0);
}

TEST(NumericalRobustness, RefinementRecoversPerturbedSolves) {
  const CscMatrix a = zero_pivot_matrix();
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNatural;
  opt.symmetric = true;
  MultifrontalSolver solver(a, opt);
  solver.factorize();
  ASSERT_GE(solver.factorization().stats.perturbations, 1);

  const std::vector<double> xtrue{1.0, -2.0, 3.0};
  std::vector<double> b(3);
  a.multiply(xtrue, b);

  // Refinement off (the default): bit-compatibility mode, no residual
  // computed, and the perturbed factors alone are nowhere near xtrue.
  const std::vector<double> x0 = solver.solve(b);
  EXPECT_EQ(solver.last_solve_stats().refine_iters, 0);
  EXPECT_EQ(solver.last_solve_stats().backward_error, -1.0);

  SolveOptions refine;
  refine.max_refine_iters = 10;
  const std::vector<double> x = solver.solve(b, refine);
  const SolveStats& stats = solver.last_solve_stats();
  EXPECT_GE(stats.refine_iters, 1);
  EXPECT_LE(stats.backward_error, 1e-12)
      << "refinement failed to recover the perturbed factorization";
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-8);
}

TEST(NumericalRobustness, RefinementIsANoOpOnCleanSystems) {
  // On an unperturbed factorization the first residual already meets the
  // tolerance-or-stagnation exit, and x must stay bit-identical to the
  // unrefined sweep (the correction is never applied when berr is at the
  // rounding floor... it is applied only while improving).
  const Problem p = make_problem(ProblemId::kTwotone, 0.14);
  MultifrontalSolver solver(p.matrix);
  solver.factorize();
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
  const std::vector<double> plain = solver.solve(b);
  SolveOptions refine;
  refine.max_refine_iters = 3;
  refine.refine_tolerance = 1e-10;  // loose: already met by the sweep
  const std::vector<double> refined = solver.solve(b, refine);
  EXPECT_EQ(solver.last_solve_stats().refine_iters, 0);
  EXPECT_GE(solver.last_solve_stats().backward_error, 0.0);
  EXPECT_TRUE(bitwise_equal(plain, refined));
}

// ---- fault sites -> taxonomy ----------------------------------------------

TEST(FaultSites, AssembledNanSurfacesAsPivotBreakdown) {
  const Problem p = make_problem(ProblemId::kTwotone, kScale);
  const Analysis analysis = analyze(p.matrix, {});
  const Factorization baseline = numeric_factorize(analysis);
  try {
    fault::ScopedPlan scoped(
        {.seed = 1, .period = 0, .overrides = {{"front.assemble_nan", 1}}});
    (void)numeric_factorize(analysis);
    FAIL() << "injected NaN was not detected";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPivotBreakdown);
    EXPECT_NE(e.context().node, kNone) << "breakdown must name the front";
  }
  // The failure leaves no residue: a fault-free rerun is bit-identical.
  expect_factors_bitwise_equal(numeric_factorize(analysis), baseline,
                               "post-breakdown rerun");
}

TEST(FaultSites, CbAllocFailureSurfacesAsResourceExhausted) {
  const Problem p = make_problem(ProblemId::kTwotone, kScale);
  const Analysis analysis = analyze(p.matrix, {});
  try {
    fault::ScopedPlan scoped(
        {.seed = 2, .period = 0, .overrides = {{"coordinator.cb_alloc", 1}}});
    (void)numeric_factorize(analysis);
    FAIL() << "injected allocation failure did not surface";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(e.context().node, kNone) << "the failure must name the node";
  }
}

TEST(FaultSites, WorkerFailureDrainsPoolAndWrapsOnce) {
  const Problem p = make_problem(ProblemId::kXenon2, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  const Analysis analysis = analyze(p.matrix, opt);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  ParallelNumericStats pstats;
  const Factorization baseline =
      parallel_numeric_factorize(analysis, popt, &pstats);
  ASSERT_GT(pstats.num_subtrees, 0) << "no subtree tasks to inject into";

  // Repeat to prove the pool never wedges: every armed run must return
  // (drained workers) with exactly the structured wrap, and every
  // fault-free run in between must be pristine.
  for (int round = 0; round < 3; ++round) {
    try {
      fault::ScopedPlan scoped({.seed = static_cast<std::uint64_t>(round),
                                .period = 0,
                                .overrides = {{"worker.subtree_exception", 1}}});
      (void)parallel_numeric_factorize(analysis, popt);
      FAIL() << "injected worker exception did not surface";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kWorkerFailure);
      EXPECT_NE(std::string(e.what()).find("injected worker failure"),
                std::string::npos);
    }
    expect_factors_bitwise_equal(parallel_numeric_factorize(analysis, popt),
                                 baseline,
                                 "round " + std::to_string(round));
  }
}

TEST(FaultSites, SolveWorkerFailureIsStructuredToo) {
  const Problem p = make_problem(ProblemId::kXenon2, kScale);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  const Analysis analysis = analyze(p.matrix, opt);
  const Factorization fact = numeric_factorize(analysis);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
  SolveOptions sopt;
  sopt.nthreads = 4;

  const std::vector<double> baseline =
      solve_factorized_multi(analysis, fact, b, 1, sopt);
  try {
    fault::ScopedPlan scoped(
        {.seed = 4, .period = 0, .overrides = {{"worker.solve_exception", 1}}});
    (void)solve_factorized_multi(analysis, fact, b, 1, sopt);
    FAIL() << "injected solve worker exception did not surface";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWorkerFailure);
  }
  EXPECT_TRUE(bitwise_equal(
      solve_factorized_multi(analysis, fact, b, 1, sopt), baseline));

  // The site fires per task in both sweeps: walk seeds until a schedule
  // spares the forward sweep and fails the backward one, which must
  // drain the same way.
  bool backward_failed = false;
  for (std::uint64_t seed = 0; seed < 64 && !backward_failed; ++seed) {
    try {
      fault::ScopedPlan scoped({.seed = seed,
                                .period = 0,
                                .overrides = {{"worker.solve_exception", 8}}});
      (void)solve_factorized_multi(analysis, fact, b, 1, sopt);
    } catch (const SolverError& e) {
      if (std::string(e.what()).find("solve backward sweep") ==
          std::string::npos)
        continue;
      backward_failed = true;
      EXPECT_EQ(e.code(), ErrorCode::kWorkerFailure);
    }
  }
  ASSERT_TRUE(backward_failed) << "no seed failed the backward sweep";
  EXPECT_TRUE(bitwise_equal(
      solve_factorized_multi(analysis, fact, b, 1, sopt), baseline));
}

TEST(FaultSites, TryFacadeMapsEveryFailureToStatus) {
  const Problem p = make_problem(ProblemId::kTwotone, kScale);
  MultifrontalSolver solver(p.matrix);

  // Solve before factorize: invalid input, no exception escapes.
  std::vector<double> x;
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
  const Status premature = solver.try_solve(b, 1, x);
  EXPECT_EQ(premature.code, ErrorCode::kInvalidInput);

  {
    fault::ScopedPlan scoped(
        {.seed = 1, .period = 0, .overrides = {{"front.assemble_nan", 1}}});
    const Status st = solver.try_factorize();
    EXPECT_EQ(st.code, ErrorCode::kPivotBreakdown);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(st.message.empty());
    EXPECT_FALSE(solver.factorized());
  }
  {
    fault::ScopedPlan scoped(
        {.seed = 2, .period = 0, .overrides = {{"coordinator.cb_alloc", 1}}});
    EXPECT_EQ(solver.try_factorize().code, ErrorCode::kResourceExhausted);
  }

  // Disarmed: the same object recovers completely.
  ASSERT_TRUE(solver.try_factorize().ok());
  ASSERT_TRUE(solver.try_solve(b, 1, x).ok());
  EXPECT_EQ(x.size(), b.size());
  EXPECT_LT(p.matrix.residual_inf(x, b) /
                static_cast<double>(p.matrix.nrows()),
            1e-6);
}

TEST(FaultSites, OocTransientErrorsAreRetriedThenStructured) {
  const Problem p = make_problem(ProblemId::kUltrasound3, 0.25);
  ExperimentSetup setup;
  setup.nprocs = 8;
  setup.ordering = OrderingKind::kNestedDissection;
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ExperimentSetup ooc = setup;
  ooc.ooc.enabled = true;
  // Undercut the in-core peak so the run spills AND reloads: both disk
  // directions see traffic (and so both fault sites see calls).
  ooc.ooc.budget = incore.max_stack_peak / 2;
  const ExperimentOutcome baseline = run_prepared(prepared, ooc);
  ASSERT_GT(baseline.parallel.ooc_reload_entries, 0);
  EXPECT_EQ(baseline.parallel.ooc_io_retries, 0);

  // Sparse transients: the bounded-backoff retry path absorbs them —
  // the run completes, moves identical volumes, and reports the retries.
  index_t total_retries = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    fault::ScopedPlan scoped({.seed = seed,
                              .period = 0,
                              .overrides = {{"ooc.write", 23},
                                            {"ooc.read", 23}}});
    const ExperimentOutcome out = run_prepared(prepared, ooc);
    EXPECT_EQ(out.parallel.ooc_factor_write_entries,
              baseline.parallel.ooc_factor_write_entries);
    EXPECT_EQ(out.parallel.ooc_spill_entries,
              baseline.parallel.ooc_spill_entries);
    total_retries += out.parallel.ooc_io_retries;
  }
  EXPECT_GT(total_retries, 0) << "no seed exercised the retry path";

  // A persistent failure exhausts the bounded retries and surfaces as a
  // structured io_error, never an unbounded retry loop.
  try {
    fault::ScopedPlan scoped(
        {.seed = 0, .period = 0, .overrides = {{"ooc.write", 1}}});
    (void)run_prepared(prepared, ooc);
    FAIL() << "persistent disk failure did not surface";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("bounded retries"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace memfront
