// Real out-of-core execution under a hard memory budget: the budgeted
// drivers must produce factors and solutions bit-identical to the
// in-core ones while the charged footprint (resident CBs + live fronts
// + in-flight spill writes) never exceeds the budget — checked at
// 0.8x of the in-core peak on the largest Table-1 problem (PRE2),
// serially and at 2/4/8 workers, in both I/O disciplines, and at the
// minimum budget on 3 workers, where the dead CB files are discarded
// before the final flush. In core, the same ledger runs unlimited and
// opens nothing on disk. Serial or parallel, every admission wait is the
// scheduler's memory wait, and none may need the safety-net tick. A
// 64-column panel solved on reloaded factors matches the in-core sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "memfront/frontal/arena.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/ooc/coordinator.hpp"
#include "memfront/solver/numeric_factor.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/support/rng.hpp"
#include "memfront/support/status.hpp"

namespace memfront {
namespace {

constexpr double kScale = 0.2;

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_factors_bitwise_identical(const Factorization& run,
                                      const Factorization& base,
                                      const std::string& label) {
  // OOC runs leave the panels on disk: page them back before comparing
  // (the same call every solve entry point makes).
  ensure_factors_resident(run);
  ASSERT_EQ(run.nodes.size(), base.nodes.size()) << label;
  EXPECT_EQ(run.row_of, base.row_of) << label;
  for (std::size_t i = 0; i < run.nodes.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(run.nodes[i].panel, base.nodes[i].panel))
        << label << ": panel of node " << i;
    ASSERT_TRUE(bitwise_equal(run.nodes[i].u12, base.nodes[i].u12))
        << label << ": u12 of node " << i;
  }
}

struct Pre2Fixture {
  Problem p = make_problem(ProblemId::kPre2, kScale);
  Analysis analysis;
  std::vector<double> b;
  Factorization incore;
  std::vector<double> x_incore;
  count_t arena_peak = 0;

  Pre2Fixture() {
    AnalysisOptions opt;
    opt.ordering = OrderingKind::kNestedDissection;
    analysis = analyze(p.matrix, opt);
    b.assign(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
    incore = numeric_factorize(analysis);
    x_incore = solve_factorized_multi(analysis, incore, b, 1);
    arena_peak = incore.stats.arena_peak_doubles;
  }
};

Pre2Fixture& pre2() {
  static Pre2Fixture fixture;
  return fixture;
}

/// The scheduler's lost wakeups so far in this process: every
/// factorization, serial or parallel, adds its count to this metric.
std::int64_t tick_rescues() {
  const obs::Counter* c =
      obs::MetricsRegistry::global().find_counter("solver.sched.tick_rescues");
  return c == nullptr ? 0 : c->value();
}

/// The scheduler's memory-wait sleeps so far in this process: every
/// budgeted factorization, serial or parallel, adds its count.
std::int64_t memory_waits() {
  const obs::Counter* c =
      obs::MetricsRegistry::global().find_counter("solver.sched.memory_waits");
  return c == nullptr ? 0 : c->value();
}

OocExecConfig budgeted(count_t budget, bool write_behind = true) {
  OocExecConfig cfg;
  cfg.enabled = true;
  cfg.budget_doubles = budget;
  cfg.write_behind = write_behind;
  return cfg;
}

TEST(OocExec, SerialPre2At08PeakIsBitIdenticalAndWithinBudget) {
  Pre2Fixture& f = pre2();
  const count_t budget = f.arena_peak * 8 / 10;
  ASSERT_GE(budget, predict_min_ooc_budget(f.analysis.tree,
                                           f.analysis.traversal))
      << "0.8x the in-core peak is below the structural floor for this "
         "tree; the test problem no longer exercises the spill path";

  obs::MetricsRegistry::global().reset();
  NumericOptions opt;
  opt.ooc = budgeted(budget);
  const Factorization fact = numeric_factorize(f.analysis, opt);

  // The factors must not depend on where the CBs lived.
  expect_factors_bitwise_identical(fact, f.incore, "serial 0.8x");

  // The budget was a *hard* bound on the charged footprint, and the run
  // really degraded (spilled) instead of quietly fitting.
  const OocExecStats& st = fact.stats.ooc;
  EXPECT_LE(st.charged_peak_doubles, budget);
  EXPECT_EQ(st.overrun_peak_doubles, 0);
  EXPECT_GT(st.spill_events, 0) << "nothing spilled: budget not binding";
  EXPECT_EQ(st.spill_doubles, st.reload_doubles)
      << "every spilled CB must be reloaded exactly once";
  EXPECT_GT(st.factor_write_doubles, 0);
  EXPECT_EQ(tick_rescues(), 0) << "a memory waiter missed a release";

  // The same bound, observable from the outside through the obs gauges
  // (the acceptance pin: arena + spill-buffer bytes <= budget bytes).
  const auto* charged = obs::MetricsRegistry::global().find_gauge(
      "solver.ooc.charged_peak_bytes");
  const auto* buffer = obs::MetricsRegistry::global().find_gauge(
      "solver.ooc.buffer_high_water_bytes");
  ASSERT_NE(charged, nullptr);
  ASSERT_NE(buffer, nullptr);
  EXPECT_LE(charged->value(),
            budget * static_cast<count_t>(sizeof(double)));
  EXPECT_LE(buffer->value(),
            budget * static_cast<count_t>(sizeof(double)));

  // Factor panels went to disk and come back transparently at solve
  // time, to the same solution bits.
  ASSERT_NE(fact.ooc_factors, nullptr);
  const std::vector<double> x = solve_factorized_multi(f.analysis, fact, f.b, 1);
  EXPECT_TRUE(bitwise_equal(x, f.x_incore));
}

class OocExecWorkers : public ::testing::TestWithParam<unsigned> {};

TEST_P(OocExecWorkers, ParallelPre2At08PeakIsBitIdentical) {
  const unsigned workers = GetParam();
  Pre2Fixture& f = pre2();
  const count_t budget = f.arena_peak * 8 / 10;

  ParallelNumericOptions opt;
  opt.nthreads = workers;
  opt.nprocs = 8;  // fixed mapping: bits must not depend on workers
  opt.ooc = budgeted(budget);
  const Factorization fact = parallel_numeric_factorize(f.analysis, opt);

  expect_factors_bitwise_identical(
      fact, f.incore, "workers " + std::to_string(workers));
  const OocExecStats& st = fact.stats.ooc;
  EXPECT_LE(st.charged_peak_doubles, budget);
  EXPECT_EQ(st.overrun_peak_doubles, 0);
  EXPECT_GT(st.spill_events, 0);

  SolveOptions sopt;
  sopt.nthreads = workers;
  sopt.nprocs = 8;
  const std::vector<double> x =
      solve_factorized_multi(f.analysis, fact, f.b, 1, sopt);
  EXPECT_TRUE(bitwise_equal(x, f.x_incore))
      << "workers " << workers << ": solution bits";
}

INSTANTIATE_TEST_SUITE_P(BudgetSweep, OocExecWorkers,
                         ::testing::Values(2u, 4u, 8u),
                         [](const auto& info) {
                           return std::string("w") +
                                  std::to_string(info.param);
                         });

TEST(OocExec, ThreeWorkersAtTheFloorDiscardTheCbFilesAndOverlapIo) {
  Pre2Fixture& f = pre2();
  const count_t floor =
      predict_min_ooc_budget(f.analysis.tree, f.analysis.traversal);
  constexpr unsigned kWorkers = 3;
  ParallelNumericOptions opt;
  opt.nthreads = kWorkers;
  opt.nprocs = 8;
  opt.sched.policy = RealPolicy::kMemory;
  opt.ooc = budgeted(floor);
  ParallelNumericStats ps;
  const Factorization fact = parallel_numeric_factorize(f.analysis, opt, &ps);
  const OocExecStats& st = fact.stats.ooc;
  EXPECT_LE(st.charged_peak_doubles, floor);
  EXPECT_EQ(st.overrun_peak_doubles, 0);
  EXPECT_GT(st.spill_events, 0);
  EXPECT_EQ(ps.sched.tick_rescues, 0u) << "a memory waiter missed a release";

  // Two files per worker: CB blocks in files [0, 3), all dead and
  // discarded; factor panels in files [3, 6), which hold every byte the
  // solve reloads.
  ASSERT_NE(fact.ooc_factors, nullptr);
  const SpillStore& store = *fact.ooc_factors->store;
  ASSERT_EQ(store.num_files(), 2 * static_cast<index_t>(kWorkers));
  std::uintmax_t factor_file_bytes = 0;
  for (index_t w = 0; w < static_cast<index_t>(kWorkers); ++w) {
    EXPECT_EQ(std::filesystem::file_size(store.file_path(w)), 0u)
        << "CB file of worker " << w;
    factor_file_bytes += std::filesystem::file_size(
        store.file_path(static_cast<index_t>(kWorkers) + w));
  }
  EXPECT_GE(factor_file_bytes,
            static_cast<std::uintmax_t>(st.factor_write_doubles) *
                sizeof(double));

  // Write-behind hid some of the I/O thread's work from compute, and
  // never more than all of it.
  const SpillStoreStats ss = store.stats();
  EXPECT_GT(st.overlap_seconds, 0.0);
  EXPECT_LE(st.overlap_seconds, ss.write_busy_seconds);

  // The factors reload straight into their storage, to the in-core bits
  // and the in-core solution.
  expect_factors_bitwise_identical(fact, f.incore, "3 workers at the floor");
  SolveOptions sopt;
  sopt.nthreads = kWorkers;
  sopt.nprocs = 8;
  EXPECT_TRUE(bitwise_equal(
      solve_factorized_multi(f.analysis, fact, f.b, 1, sopt), f.x_incore));
}

TEST(OocExec, SynchronousModeMatchesWriteBehindBitForBit) {
  Pre2Fixture& f = pre2();
  const count_t budget = f.arena_peak * 8 / 10;
  NumericOptions opt;
  opt.ooc = budgeted(budget, /*write_behind=*/false);
  const std::int64_t rescues = tick_rescues();
  const Factorization fact = numeric_factorize(f.analysis, opt);
  expect_factors_bitwise_identical(fact, f.incore, "synchronous");
  EXPECT_LE(fact.stats.ooc.charged_peak_doubles, budget);
  // Synchronous writes never overlap compute by definition.
  EXPECT_EQ(fact.stats.ooc.overlap_seconds, 0.0);
  EXPECT_EQ(tick_rescues(), rescues);
}

TEST(OocExec, UnlimitedBudgetStillStreamsFactors) {
  Pre2Fixture& f = pre2();
  NumericOptions opt;
  opt.ooc = budgeted(0);  // unlimited: nothing spills, factors stream
  const std::int64_t rescues = tick_rescues();
  const Factorization fact = numeric_factorize(f.analysis, opt);
  expect_factors_bitwise_identical(fact, f.incore, "unlimited");
  EXPECT_EQ(fact.stats.ooc.spill_events, 0);
  EXPECT_GT(fact.stats.ooc.factor_write_doubles, 0);
  EXPECT_EQ(tick_rescues(), rescues);
  const std::vector<double> x = solve_factorized_multi(f.analysis, fact, f.b, 1);
  EXPECT_TRUE(bitwise_equal(x, f.x_incore));
}

TEST(OocExec, InCoreOpensNothingOnDisk) {
  Pre2Fixture& f = pre2();
  // A fresh spill directory for any store the runs below might open.
  std::string dir =
      (std::filesystem::temp_directory_path() / "memfront_incore_XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const char* prev = std::getenv("MEMFRONT_SPILL_DIR");
  const bool had_prev = prev != nullptr;
  const std::string saved = had_prev ? prev : "";
  ::setenv("MEMFRONT_SPILL_DIR", dir.c_str(), 1);
  obs::MetricsRegistry::global().reset();

  const Factorization serial = numeric_factorize(f.analysis);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  popt.nprocs = 8;
  const Factorization parallel = parallel_numeric_factorize(f.analysis, popt);

  if (had_prev)
    ::setenv("MEMFRONT_SPILL_DIR", saved.c_str(), 1);
  else
    ::unsetenv("MEMFRONT_SPILL_DIR");
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "in core wrote a file";
  std::filesystem::remove_all(dir);

  EXPECT_EQ(serial.ooc_factors, nullptr);
  EXPECT_EQ(parallel.ooc_factors, nullptr);
  // In core records no solver.ooc.* metric and reports no OOC stats.
  const auto& metrics = obs::MetricsRegistry::global();
  for (const char* name : {"solver.ooc.runs", "solver.ooc.policy_admissions"}) {
    const obs::Counter* c = metrics.find_counter(name);
    EXPECT_TRUE(c == nullptr || c->value() == 0) << name;
  }
  const obs::Gauge* charged =
      metrics.find_gauge("solver.ooc.charged_peak_bytes");
  EXPECT_TRUE(charged == nullptr || charged->value() == 0);
  EXPECT_EQ(serial.stats.ooc.charged_peak_doubles, 0);
  EXPECT_EQ(parallel.stats.ooc.charged_peak_doubles, 0);
  // The serial ledger is the in-core stack model, and both drivers keep
  // the in-core bits.
  EXPECT_EQ(serial.stats.arena_peak_doubles,
            predict_arena_peak(f.analysis.tree, f.analysis.traversal));
  EXPECT_GT(parallel.stats.arena_peak_doubles, 0);
  expect_factors_bitwise_identical(serial, f.incore, "serial in core");
  expect_factors_bitwise_identical(parallel, f.incore, "parallel in core");
}

TEST(OocExec, CbOnlyModeKeepsFactorsResident) {
  Pre2Fixture& f = pre2();
  NumericOptions opt;
  opt.ooc = budgeted(f.arena_peak * 8 / 10);
  opt.ooc.spill_factors = false;
  const std::int64_t rescues = tick_rescues();
  const Factorization fact = numeric_factorize(f.analysis, opt);
  expect_factors_bitwise_identical(fact, f.incore, "cb-only");
  EXPECT_EQ(fact.ooc_factors, nullptr);
  EXPECT_EQ(fact.stats.ooc.factor_write_doubles, 0);
  EXPECT_GT(fact.stats.ooc.spill_events, 0);
  EXPECT_EQ(tick_rescues(), rescues);
}

TEST(OocExec, InfeasibleBudgetIsAStructuredResourceError) {
  Pre2Fixture& f = pre2();
  const count_t floor =
      predict_min_ooc_budget(f.analysis.tree, f.analysis.traversal);
  NumericOptions opt;
  opt.ooc = budgeted(floor / 2);  // below the single-node working set
  try {
    numeric_factorize(f.analysis, opt);
    FAIL() << "infeasible budget did not throw";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(e.context().detail.find("budget="), std::string::npos)
        << "the error does not carry the budget arithmetic: "
        << e.context().detail;
  }
}

TEST(OocExec, AllowOverrunRecordsInsteadOfFailing) {
  Pre2Fixture& f = pre2();
  const count_t floor =
      predict_min_ooc_budget(f.analysis.tree, f.analysis.traversal);
  NumericOptions opt;
  opt.ooc = budgeted(floor / 2);
  opt.ooc.allow_overrun = true;
  const std::int64_t rescues = tick_rescues();
  const Factorization fact = numeric_factorize(f.analysis, opt);
  expect_factors_bitwise_identical(fact, f.incore, "overrun");
  EXPECT_GT(fact.stats.ooc.overrun_peak_doubles, 0);
  EXPECT_GT(fact.stats.ooc.charged_peak_doubles, floor / 2);
  EXPECT_EQ(tick_rescues(), rescues);
}

TEST(OocExec, MinBudgetPredictorIsAFeasibilityBoundary) {
  Pre2Fixture& f = pre2();
  const count_t floor =
      predict_min_ooc_budget(f.analysis.tree, f.analysis.traversal);
  ASSERT_GT(floor, 0);
  ASSERT_LE(floor, f.arena_peak);
  // Exactly at the floor the serial traversal must still complete: the
  // coordinator can spill everything outside one node's family.
  NumericOptions opt;
  opt.ooc = budgeted(floor);
  const std::int64_t rescues = tick_rescues();
  const std::int64_t waits = memory_waits();
  // Whether the lone worker sleeps in the scheduler's memory wait is a
  // race with the write-behind thread: it sleeps only when a factor
  // write is still in flight at an admission that needs its charge
  // (about half the runs here). Repeat until one run slept, so the
  // zero-rescue check below watched real sleeps; every run must meet
  // the floor bit for bit.
  constexpr int kMaxRuns = 20;
  for (int run = 0; run < kMaxRuns && memory_waits() == waits; ++run) {
    const Factorization fact = numeric_factorize(f.analysis, opt);
    expect_factors_bitwise_identical(fact, f.incore, "at the floor");
    EXPECT_LE(fact.stats.ooc.charged_peak_doubles, floor);
  }
  EXPECT_GT(memory_waits(), waits)
      << "no serial run at the floor slept in the memory wait";
  EXPECT_EQ(tick_rescues(), rescues);
}

TEST(OocExec, WidePanelSolveAfterABudgetedFactorizationMatchesInCore) {
  // The benchmark's 64-column panel on factors the budgeted run left on
  // disk (reloaded by the solve, then swept on 4 workers) must match
  // the serial sweep over the in-core factors bit for bit.
  Pre2Fixture& f = pre2();
  NumericOptions opt;
  opt.ooc = budgeted(f.arena_peak * 8 / 10);
  const Factorization fact = numeric_factorize(f.analysis, opt);
  ASSERT_NE(fact.ooc_factors, nullptr);
  constexpr index_t kPanel = 64;
  Rng rng(64);
  std::vector<double> panel(f.b.size() * kPanel);
  for (double& v : panel) v = rng.real(-1.0, 1.0);
  SolveOptions sopt;
  sopt.nthreads = 4;
  sopt.nprocs = 8;
  EXPECT_TRUE(bitwise_equal(
      solve_factorized_multi(f.analysis, fact, panel, kPanel, sopt),
      solve_factorized_multi(f.analysis, f.incore, panel, kPanel)));
}

TEST(OocExec, RepeatedSolvesAfterReloadStayIdentical) {
  Pre2Fixture& f = pre2();
  NumericOptions opt;
  opt.ooc = budgeted(f.arena_peak * 8 / 10);
  const std::int64_t rescues = tick_rescues();
  const Factorization fact = numeric_factorize(f.analysis, opt);
  const std::vector<double> x1 = solve_factorized_multi(f.analysis, fact, f.b, 1);
  const std::vector<double> x2 = solve_factorized_multi(f.analysis, fact, f.b, 1);
  EXPECT_TRUE(bitwise_equal(x1, f.x_incore));
  EXPECT_TRUE(bitwise_equal(x2, x1)) << "second solve (panels resident)";
  EXPECT_EQ(tick_rescues(), rescues);
}

}  // namespace
}  // namespace memfront
