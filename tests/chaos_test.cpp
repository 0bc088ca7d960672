// The chaos harness: hundreds of deterministic seeded fault schedules
// swept over Table-1 problems x LU/LDLT x worker counts, asserting the
// hardened-execution contract on every single run —
//
//   either the run completes and its factors AND solution are
//   bit-identical to the fault-free baseline, or it fails with a clean
//   structured error from the taxonomy;
//
// never a crash, a hang, a silent wrong answer, or an uncategorized
// exception. Schedules are pure functions of the seed, so a failing
// seed reported by CI replays exactly under a debugger.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "memfront/core/experiment.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"
#include "tree_shapes.hpp"

namespace memfront {
namespace {

constexpr double kScale = 0.14;
/// The smallest scale at which XENON2's tree (7 nodes) has subtree tasks
/// at nprocs 8; at kScale it has 4 nodes and none.
constexpr double kXenon2Scale = 0.18;
constexpr std::uint64_t kSeedsPerCase = 16;
/// The mapping width of every run: the bits must not depend on workers.
constexpr index_t kChaosNprocs = 8;

/// The execution-path fault surface. A seed arms one site, so a failing
/// run has one error code and its replay must reproduce it.
constexpr std::array<const char*, 4> kChaosSites = {
    "front.assemble_nan", "coordinator.cb_alloc", "worker.subtree_exception",
    "worker.solve_exception"};

/// How many ids each kChaosSites entry draws in one factorize + solve of
/// `analysis` on `workers`: fronts with pivots, contribution blocks,
/// subtree tasks, and the tasks of both solve sweeps (none on one
/// worker, whose serial sweep has no fault site).
std::array<index_t, 4> chaos_site_ids(const Analysis& analysis,
                                      unsigned workers) {
  const AssemblyTree& tree = analysis.tree;
  index_t pivot_fronts = 0, cbs = 0;
  for (index_t i = 0; i < tree.num_nodes(); ++i) {
    if (tree.npiv(i) > 0) ++pivot_fronts;
    if (tree.ncb(i) > 0) ++cbs;
  }
  SolveOptions sopt;
  sopt.nprocs = kChaosNprocs;
  const SolveGraph g = build_solve_graph(analysis, sopt);
  const index_t subtrees = static_cast<index_t>(g.subtrees.roots.size());
  const index_t tasks = subtrees + static_cast<index_t>(g.upper_nodes.size());
  return {pivot_fronts, cbs, subtrees, workers > 1 ? 2 * tasks : 0};
}

/// Seed s arms site s % 4 with period ids + 1: under one fire per run
/// on average, so a site with n ids leaves a seed clean with chance
/// (n / (n + 1))^n, between 1/e and 1/2.
fault::Plan chaos_plan(std::uint64_t seed,
                       const std::array<index_t, 4>& site_ids) {
  const std::size_t site = seed % kChaosSites.size();
  return {.seed = seed,
          .period = 0,
          .overrides = {{kChaosSites[site],
                         static_cast<std::uint32_t>(site_ids[site] + 1)}}};
}

/// The scheduler's lost wakeups so far in this process: every completed
/// factorization adds its count to this metric.
std::int64_t tick_rescues() {
  const obs::Counter* c =
      obs::MetricsRegistry::global().find_counter("solver.sched.tick_rescues");
  return c == nullptr ? 0 : c->value();
}

struct RunResult {
  ErrorCode code = ErrorCode::kOk;
  Factorization fact;
  std::vector<double> x;
};

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// One factorize + solve under whatever plan is armed. Every taxonomy
/// escape is captured; anything else propagates and fails the test.
/// `sched_seed` rotates the scheduler through its modes (steal on/off x
/// workload/memory policy) so the sweep — and the TSan build of it —
/// exercises every dispatch path; results are mode-independent, so the
/// bitwise baseline comparison stays valid.
RunResult run_once(const Analysis& analysis, const std::vector<double>& b,
                   unsigned workers, std::uint64_t sched_seed = 0) {
  RunResult r;
  try {
    ParallelNumericOptions popt;
    popt.nthreads = workers;
    popt.nprocs = kChaosNprocs;
    popt.sched.steal = (sched_seed % 2 == 0);
    popt.sched.policy =
        (sched_seed % 4 < 2) ? RealPolicy::kWorkload : RealPolicy::kMemory;
    r.fact = parallel_numeric_factorize(analysis, popt);
    SolveOptions sopt;
    sopt.nthreads = workers;
    sopt.nprocs = kChaosNprocs;
    r.x = solve_factorized_multi(analysis, r.fact, b, 1, sopt);
  } catch (const SolverError& e) {
    r.code = e.code();
  } catch (const InvalidInputError& e) {
    r.code = e.code();
  }
  return r;
}

void expect_bitwise_identical(const RunResult& run, const RunResult& base,
                              const std::string& label) {
  ASSERT_EQ(run.fact.nodes.size(), base.fact.nodes.size()) << label;
  EXPECT_EQ(run.fact.row_of, base.fact.row_of) << label;
  for (std::size_t i = 0; i < run.fact.nodes.size(); ++i) {
    ASSERT_TRUE(
        bitwise_equal(run.fact.nodes[i].panel, base.fact.nodes[i].panel))
        << label << ": panel of node " << i;
    ASSERT_TRUE(bitwise_equal(run.fact.nodes[i].u12, base.fact.nodes[i].u12))
        << label << ": u12 of node " << i;
  }
  EXPECT_TRUE(bitwise_equal(run.x, base.x)) << label << ": solution";
}

bool structured(ErrorCode code) {
  switch (code) {
    case ErrorCode::kPivotBreakdown:
    case ErrorCode::kResourceExhausted:
    case ErrorCode::kWorkerFailure:
      return true;
    default:
      return false;
  }
}

struct ChaosCase {
  ProblemId id;
  bool ldlt;
  unsigned workers;
};

double chaos_scale(ProblemId id) {
  return id == ProblemId::kXenon2 ? kXenon2Scale : kScale;
}

class ChaosHarness : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosHarness, EverySeedIsBitIdenticalOrCleanlyStructured) {
  const auto [pid, ldlt, workers] = GetParam();
  const Problem p = make_problem(pid, chaos_scale(pid));
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  opt.symmetric = ldlt;
  const Analysis analysis = analyze(p.matrix, opt);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
  const std::array<index_t, 4> site_ids = chaos_site_ids(analysis, workers);
  ASSERT_GT(site_ids[2], 0) << "no subtree task: worker.subtree_exception "
                                "never fires";
  const std::int64_t rescues = tick_rescues();

  const RunResult baseline = run_once(analysis, b, workers);
  ASSERT_EQ(baseline.code, ErrorCode::kOk) << "fault-free baseline failed";

  // Seeds 4k..4k+3 arm each site once under scheduling mode k.
  int clean = 0, failed = 0;
  for (std::uint64_t seed = 0; seed < kSeedsPerCase; ++seed) {
    const std::string label = problem_name(pid) + " seed " +
                              std::to_string(seed) + " workers " +
                              std::to_string(workers);
    const std::uint64_t sched_seed = seed / kChaosSites.size();
    RunResult run;
    {
      fault::ScopedPlan scoped(chaos_plan(seed, site_ids));
      run = run_once(analysis, b, workers, sched_seed);
    }
    if (run.code == ErrorCode::kOk) {
      ++clean;
      expect_bitwise_identical(run, baseline, label);
    } else {
      ++failed;
      EXPECT_TRUE(structured(run.code))
          << label << ": uncategorized code " << error_code_name(run.code);
    }
    // A failed schedule must never poison the process: replay the seed
    // (determinism) on the first failure only, to bound the cost.
    if (run.code != ErrorCode::kOk && failed == 1) {
      fault::ScopedPlan scoped(chaos_plan(seed, site_ids));
      EXPECT_EQ(run_once(analysis, b, workers, sched_seed).code, run.code)
          << label << ": schedule did not replay";
    }
  }
  // The periods follow the case's id counts so the sweep exercises both
  // outcomes; all-clean or all-failed means it stopped probing one.
  EXPECT_GT(failed, 0) << "no schedule ever injected";
  EXPECT_GT(clean, 0) << "no schedule ever ran clean";
  // Fault-free execution after the whole sweep is still pristine.
  const RunResult after = run_once(analysis, b, workers);
  ASSERT_EQ(after.code, ErrorCode::kOk);
  expect_bitwise_identical(after, baseline, "post-sweep rerun");
  // Under faults and failures alike, no sleeper needed the safety-net
  // tick to see its wakeup.
  EXPECT_EQ(tick_rescues(), rescues) << "a scheduler wakeup was lost";
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    cases.push_back({ProblemId::kXenon2, false, workers});    // UNS -> LU
    cases.push_back({ProblemId::kMsdoor, true, workers});     // SYM -> LDLT
    cases.push_back({ProblemId::kTwotone, false, workers});   // UNS -> LU
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ChaosHarness, ::testing::ValuesIn(chaos_cases()),
    [](const auto& info) {
      return problem_name(info.param.id) +
             std::string(info.param.ldlt ? "_LDLT" : "_LU") + "_w" +
             std::to_string(info.param.workers);
    });

// Intra-front sharing under failure: with the helper fault site firing
// on every block, a worker helping with another worker's shared front
// update fails inside that front. The owner waits until every helper
// has left the job, then fails its own task: the run ends in exactly
// one structured error — the helper's — and the next fault-free run is
// bit-identical to the baseline. The scale gives the top fronts
// trailing updates above kShareMinFlops, so sharing fires.
TEST(ChaosHarness, HelperFailureInASharedFrontIsOneStructuredError) {
  const Problem p = make_problem(ProblemId::kTwotone, 0.2);
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  const Analysis analysis = analyze(p.matrix, opt);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
  constexpr unsigned kWorkers = 4;
  const RunResult baseline = run_once(analysis, b, kWorkers);
  ASSERT_EQ(baseline.code, ErrorCode::kOk) << "fault-free baseline failed";

  for (std::uint64_t seed = 0; seed < 4; ++seed) {  // every sched mode
    const std::string label = "sched seed " + std::to_string(seed);
    fault::ScopedPlan scoped({.seed = seed,
                              .period = 0,
                              .overrides = {{"worker.help_exception", 1}}});
    ParallelNumericOptions popt;
    popt.nthreads = kWorkers;
    popt.nprocs = 8;
    popt.sched.steal = (seed % 2 == 0);
    popt.sched.policy =
        (seed % 4 < 2) ? RealPolicy::kWorkload : RealPolicy::kMemory;
    try {
      (void)parallel_numeric_factorize(analysis, popt);
      ADD_FAILURE() << label << ": no helper ever joined a shared front";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kWorkerFailure) << label;
      EXPECT_NE(std::string(e.what()).find("helper failure"),
                std::string::npos)
          << label << ": surfaced error is not the helper's: " << e.what();
    }
    EXPECT_GT(fault::Registry::global().injected_count(), 0) << label;
  }
  const RunResult after = run_once(analysis, b, kWorkers);
  ASSERT_EQ(after.code, ErrorCode::kOk);
  expect_bitwise_identical(after, baseline, "post-failure rerun");
}

// The same under a budget, for a helper that joined from the memory
// wait: at the predict_min_ooc_budget floor the dense block fronts each
// need almost the whole budget, so the workers holding the others wait
// for memory inside begin_node and help the running front. With the
// memory-wait helper fault site firing on every block, the run ends in
// exactly one structured error (the helper's), nobody hangs in the
// admission wait, and the next fault-free budgeted run is bit-identical
// to the in-core baseline.
TEST(ChaosHarness, MemoryWaitHelperFailureInASharedFrontIsOneStructuredError) {
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNatural;
  const Analysis analysis = analyze(dense_block_matrix(6, 448, 64), opt);
  const Factorization baseline = numeric_factorize(analysis);
  constexpr unsigned kWorkers = 4;
  const auto budgeted = [&](std::uint64_t seed) {
    ParallelNumericOptions popt;
    popt.nthreads = kWorkers;
    popt.nprocs = kWorkers;
    popt.sched.steal = (seed % 2 == 0);
    popt.sched.policy =
        (seed % 4 < 2) ? RealPolicy::kWorkload : RealPolicy::kMemory;
    popt.ooc.enabled = true;
    popt.ooc.budget_doubles =
        predict_min_ooc_budget(analysis.tree, analysis.traversal);
    return popt;
  };

  for (std::uint64_t seed = 0; seed < 4; ++seed) {  // every sched mode
    const std::string label = "sched seed " + std::to_string(seed);
    fault::ScopedPlan scoped(
        {.seed = seed,
         .period = 0,
         .overrides = {{"worker.memory_help_exception", 1}}});
    try {
      (void)parallel_numeric_factorize(analysis, budgeted(seed));
      ADD_FAILURE() << label << ": no memory waiter ever joined a front";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kWorkerFailure) << label;
      EXPECT_NE(std::string(e.what()).find("helper failure"),
                std::string::npos)
          << label << ": surfaced error is not the helper's: " << e.what();
    }
    EXPECT_GT(fault::Registry::global().injected_count(), 0) << label;
  }
  RunResult after;
  after.fact = parallel_numeric_factorize(analysis, budgeted(0));
  ensure_factors_resident(after.fact);
  RunResult base;
  base.fact = baseline;
  expect_bitwise_identical(after, base, "post-failure budgeted rerun");
}

// The OOC simulator under disk chaos: every seeded schedule either
// completes with exactly the baseline's I/O volumes (transients absorbed
// by the bounded retry) or fails as a clean io_error.
TEST(ChaosHarness, OocDiskFaultSweep) {
  const Problem p = make_problem(ProblemId::kUltrasound3, 0.25);
  ExperimentSetup setup;
  setup.nprocs = 8;
  setup.ordering = OrderingKind::kNestedDissection;
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ExperimentSetup ooc = setup;
  ooc.ooc.enabled = true;
  ooc.ooc.budget = incore.max_stack_peak / 2;
  const ExperimentOutcome baseline = run_prepared(prepared, ooc);
  ASSERT_GT(baseline.parallel.ooc_factor_write_entries, 0);

  int clean = 0, io_failed = 0;
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    fault::ScopedPlan scoped({.seed = seed,
                              .period = 0,
                              .overrides = {{"ooc.write", 6},
                                            {"ooc.read", 6}}});
    try {
      const ExperimentOutcome out = run_prepared(prepared, ooc);
      ++clean;
      EXPECT_EQ(out.parallel.ooc_factor_write_entries,
                baseline.parallel.ooc_factor_write_entries)
          << "seed " << seed;
      EXPECT_EQ(out.parallel.ooc_spill_entries,
                baseline.parallel.ooc_spill_entries)
          << "seed " << seed;
      EXPECT_EQ(out.parallel.ooc_reload_entries,
                baseline.parallel.ooc_reload_entries)
          << "seed " << seed;
    } catch (const SolverError& e) {
      ++io_failed;
      EXPECT_EQ(e.code(), ErrorCode::kIoError) << "seed " << seed;
    }
  }
  // Period 6 with 3 bounded attempts: most ops retry through, a few
  // exhaust — the sweep must see both outcomes.
  EXPECT_GT(clean, 0) << "every disk schedule failed";
  EXPECT_GT(io_failed, 0) << "no disk schedule ever exhausted its retries";
}

constexpr std::uint64_t kRealOocSeedsPerCase = 24;

/// The *real* spill path under disk chaos: factorize + solve with a
/// binding budget while every store fault site fires on seeded
/// schedules. The hardened-execution contract holds end to end: either
/// the transients are absorbed and the factors AND solution are
/// bit-identical to the fault-free budgeted baseline, or the run fails
/// with a structured kIoError/kWorkerFailure — never a wrong answer.
class RealOocDiskChaos : public ::testing::TestWithParam<unsigned> {};

TEST_P(RealOocDiskChaos, EverySpillScheduleIsBitIdenticalOrStructured) {
  const unsigned workers = GetParam();
  const Problem p = make_problem(ProblemId::kUltrasound3, 0.25);
  AnalysisOptions aopt;
  aopt.ordering = OrderingKind::kNestedDissection;
  const Analysis analysis = analyze(p.matrix, aopt);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.nrows()), 1.0);
  const std::int64_t rescues = tick_rescues();

  const Factorization incore = numeric_factorize(analysis);
  ParallelNumericOptions popt;
  popt.nthreads = workers;
  popt.nprocs = 8;
  popt.ooc.enabled = true;
  popt.ooc.budget_doubles = incore.stats.arena_peak_doubles * 8 / 10;

  auto run_ooc = [&](std::uint64_t sched_seed = 0) -> RunResult {
    RunResult r;
    try {
      ParallelNumericOptions ropt = popt;
      ropt.sched.steal = (sched_seed % 2 == 0);
      ropt.sched.policy = (sched_seed % 4 < 2) ? RealPolicy::kWorkload
                                               : RealPolicy::kMemory;
      r.fact = parallel_numeric_factorize(analysis, ropt);
      SolveOptions sopt;
      sopt.nthreads = workers;
      sopt.nprocs = 8;
      r.x = solve_factorized_multi(analysis, r.fact, b, 1, sopt);
    } catch (const SolverError& e) {
      r.code = e.code();
    } catch (const InvalidInputError& e) {
      r.code = e.code();
    }
    return r;
  };

  const RunResult baseline = run_ooc();
  ASSERT_EQ(baseline.code, ErrorCode::kOk) << "fault-free budgeted baseline";
  ASSERT_GT(baseline.fact.stats.ooc.spill_events, 0)
      << "budget not binding: the sweep would not touch the spill path";
  expect_bitwise_identical(baseline, run_once(analysis, b, workers),
                           "budgeted baseline vs in-core");

  int clean = 0, failed = 0;
  for (std::uint64_t seed = 0; seed < kRealOocSeedsPerCase; ++seed) {
    const std::string label =
        "real-ooc seed " + std::to_string(seed) + " workers " +
        std::to_string(workers);
    RunResult run;
    {
      fault::ScopedPlan scoped({.seed = seed,
                                .period = 0,
                                .overrides = {{"store.write", 9},
                                              {"store.read", 9},
                                              {"store.torn_read", 9},
                                              {"store.short_write", 11},
                                              {"store.enospc", 301},
                                              {"store.fsync", 13}}});
      run = run_ooc(seed);
    }
    if (run.code == ErrorCode::kOk) {
      ++clean;
      expect_bitwise_identical(run, baseline, label);
    } else {
      ++failed;
      // Disk chaos surfaces as kIoError from the failing worker; other
      // workers then unwind with kWorkerFailure — whichever the joiner
      // rethrows first, the code stays inside the taxonomy.
      EXPECT_TRUE(run.code == ErrorCode::kIoError ||
                  run.code == ErrorCode::kWorkerFailure)
          << label << ": uncategorized code " << error_code_name(run.code);
    }
  }
  EXPECT_GT(clean, 0) << "every disk schedule failed";
  EXPECT_GT(failed, 0) << "no disk schedule ever escaped the retries";

  // Fault-free execution after the sweep is still pristine (no leaked
  // spill state, no poisoned store).
  const RunResult after = run_ooc();
  ASSERT_EQ(after.code, ErrorCode::kOk);
  expect_bitwise_identical(after, baseline, "post-sweep rerun");
  // Every memory wait of the budgeted runs saw its release promptly.
  EXPECT_EQ(tick_rescues(), rescues) << "a memory waiter missed a release";
}

INSTANTIATE_TEST_SUITE_P(RealSpillPath, RealOocDiskChaos,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return std::string("w") +
                                  std::to_string(info.param);
                         });

// ctest runs every gtest case in its own process, so the acceptance
// floor (>= 200 seeded schedules across the binary) is checked
// statically from the sweep dimensions, not a runtime tally.
TEST(ChaosHarness, SweepDimensionsMeetTheScheduleFloor) {
  constexpr std::uint64_t kOocSeeds = 48;
  EXPECT_GE(kSeedsPerCase * chaos_cases().size() + kOocSeeds, 200u)
      << "the chaos sweep shrank below the acceptance floor";
}

}  // namespace
}  // namespace memfront
