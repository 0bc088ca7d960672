#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "memfront/core/experiment.hpp"
#include "memfront/ooc/disk.hpp"
#include "memfront/ooc/planner.hpp"
#include "memfront/ooc/spill.hpp"
#include "memfront/solver/analysis.hpp"
#include "memfront/sparse/generators.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/symbolic/mapping.hpp"

namespace memfront {
namespace {

// ---- disk model -----------------------------------------------------------

TEST(DiskModel, PricesSeekPlusStream) {
  DiskParams d;
  d.write_bandwidth = 1e6;
  d.read_bandwidth = 2e6;
  d.seek_latency = 0.5;
  DiskModel disk(d, 4);
  EXPECT_DOUBLE_EQ(disk.write(0, 1'000'000, 0.0), 0.5 + 1.0);
  EXPECT_DOUBLE_EQ(disk.read(1, 1'000'000, 0.0), 0.5 + 0.5);
  EXPECT_EQ(disk.write_entries(), 1'000'000);
  EXPECT_EQ(disk.read_entries(), 1'000'000);
  EXPECT_EQ(disk.write_ops(), 1);
  EXPECT_EQ(disk.read_ops(), 1);
}

TEST(DiskModel, PerProcessorChannelsDoNotContend) {
  DiskParams d;
  d.write_bandwidth = 1e6;
  d.seek_latency = 0.0;
  DiskModel disk(d, 2);
  EXPECT_DOUBLE_EQ(disk.write(0, 1'000'000, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(disk.write(1, 1'000'000, 0.0), 1.0);
}

TEST(DiskModel, SharedChannelSerializes) {
  DiskParams d;
  d.write_bandwidth = 1e6;
  d.seek_latency = 0.0;
  d.shared = true;
  DiskModel disk(d, 2);
  EXPECT_DOUBLE_EQ(disk.write(0, 1'000'000, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(disk.write(1, 1'000'000, 0.0), 2.0);  // queued behind
  EXPECT_DOUBLE_EQ(disk.busy_until(0, 0.0), 2.0);
}

TEST(DiskModel, ChannelIdlesBetweenBursts) {
  DiskParams d;
  d.write_bandwidth = 1e6;
  d.seek_latency = 0.0;
  DiskModel disk(d, 1);
  EXPECT_DOUBLE_EQ(disk.write(0, 1'000'000, 0.0), 1.0);
  // Issued long after the first finished: no queueing.
  EXPECT_DOUBLE_EQ(disk.write(0, 1'000'000, 10.0), 11.0);
}

// ---- spill policy ---------------------------------------------------------

TEST(SpillPolicy, LargestFirstFreesWithFewestEvictions) {
  const std::vector<SpillCandidate> cbs{{1, 10}, {2, 300}, {3, 50}};
  const auto victims =
      choose_spill_victims(cbs, 40, SpillPolicy::kLargestFirst);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(cbs[victims[0]].id, 2);
}

TEST(SpillPolicy, SmallestFirstEvictsCheapBlocks) {
  const std::vector<SpillCandidate> cbs{{1, 10}, {2, 300}, {3, 50}};
  const auto victims =
      choose_spill_victims(cbs, 40, SpillPolicy::kSmallestFirst);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(cbs[victims[0]].id, 1);
  EXPECT_EQ(cbs[victims[1]].id, 3);
}

TEST(SpillPolicy, OldestFirstKeepsResidencyOrder) {
  const std::vector<SpillCandidate> cbs{{7, 20}, {8, 20}, {9, 20}};
  const auto victims =
      choose_spill_victims(cbs, 30, SpillPolicy::kOldestFirst);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 0u);
  EXPECT_EQ(victims[1], 1u);
}

TEST(SpillPolicy, RoundRobinStartsAtTheCursor) {
  const std::vector<SpillCandidate> cbs{{7, 20}, {8, 20}, {9, 20}};
  const auto victims =
      choose_spill_victims(cbs, 30, SpillPolicy::kRoundRobin, /*cursor=*/1);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 2u);
}

TEST(SpillPolicy, RoundRobinWrapsPastTheEnd) {
  const std::vector<SpillCandidate> cbs{{7, 20}, {8, 20}, {9, 20}};
  const auto victims =
      choose_spill_victims(cbs, 50, SpillPolicy::kRoundRobin, /*cursor=*/2);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], 2u);
  EXPECT_EQ(victims[1], 0u);
  EXPECT_EQ(victims[2], 1u);
}

TEST(SpillPolicy, RoundRobinCursorZeroMatchesOldestFirst) {
  const std::vector<SpillCandidate> cbs{{1, 10}, {2, 30}, {3, 20}};
  EXPECT_EQ(choose_spill_victims(cbs, 35, SpillPolicy::kRoundRobin, 0),
            choose_spill_victims(cbs, 35, SpillPolicy::kOldestFirst));
}

TEST(SpillPolicy, NamesAreStable) {
  EXPECT_STREQ(spill_policy_name(SpillPolicy::kLargestFirst),
               "largest-first");
  EXPECT_STREQ(spill_policy_name(SpillPolicy::kSmallestFirst),
               "smallest-first");
  EXPECT_STREQ(spill_policy_name(SpillPolicy::kOldestFirst), "oldest-first");
  EXPECT_STREQ(spill_policy_name(SpillPolicy::kRoundRobin), "round-robin");
}

TEST(SpillPolicy, InsufficientCandidatesEvictEverything) {
  const std::vector<SpillCandidate> cbs{{1, 10}, {2, 20}};
  const auto victims =
      choose_spill_victims(cbs, 1'000, SpillPolicy::kLargestFirst);
  EXPECT_EQ(victims.size(), 2u);
}

TEST(SpillPolicy, NothingNeededNothingEvicted) {
  const std::vector<SpillCandidate> cbs{{1, 10}};
  EXPECT_TRUE(choose_spill_victims(cbs, 0, SpillPolicy::kLargestFirst).empty());
}

// ---- budgeted simulation on the paper's problems --------------------------

ExperimentSetup strategy_setup(const Problem& p, index_t nprocs, bool memory) {
  ExperimentSetup setup;
  setup.nprocs = nprocs;
  setup.symmetric = p.symmetric;
  setup.ordering = OrderingKind::kNestedDissection;
  if (memory) {
    setup.slave_strategy = SlaveStrategy::kMemoryImproved;
    setup.task_strategy = TaskStrategy::kMemoryAware;
  }
  return setup;
}

class BudgetedAllProblems
    : public ::testing::TestWithParam<std::tuple<ProblemId, bool>> {};

// The acceptance experiment: a budget of 1.2x the in-core simulated stack
// peak must be enough for the out-of-core run to complete, for every
// problem and both scheduling strategies, with the full factor volume
// streamed to disk.
TEST_P(BudgetedAllProblems, CompletesUnder120PercentBudget) {
  const auto [pid, memory_strategy] = GetParam();
  const Problem p = make_problem(pid, 0.25);
  ExperimentSetup setup = strategy_setup(p, 8, memory_strategy);
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ASSERT_GT(incore.max_stack_peak, 0);

  ExperimentSetup ooc = setup;
  ooc.ooc.enabled = true;
  ooc.ooc.budget = incore.max_stack_peak + incore.max_stack_peak / 5;
  const ExperimentOutcome out = run_prepared(prepared, ooc);

  // Completion is checked inside the simulator (all nodes, empty stacks);
  // beyond that the budget must have been honored and every factor entry
  // written to disk exactly once.
  EXPECT_TRUE(out.parallel.ooc_feasible())
      << "overrun " << out.parallel.ooc_overrun_peak << " over budget "
      << ooc.ooc.budget;
  EXPECT_EQ(out.parallel.ooc_factor_write_entries,
            prepared.analysis->tree.total_factor_entries());
  // Spilled blocks are reread exactly once, at assembly of the parent.
  EXPECT_EQ(out.parallel.ooc_spill_entries, out.parallel.ooc_reload_entries);
}

INSTANTIATE_TEST_SUITE_P(
    AllProblemsBothStrategies, BudgetedAllProblems,
    ::testing::Combine(::testing::ValuesIn(all_problem_ids()),
                       ::testing::Bool()),
    [](const auto& info) {
      return problem_name(std::get<0>(info.param)) +
             std::string(std::get<1>(info.param) ? "_memory" : "_workload");
    });

TEST(OocSim, UnlimitedBudgetMatchesInCoreScheduleButKeepsFactorsLonger) {
  const Problem p = make_problem(ProblemId::kTwotone, 0.3);
  ExperimentSetup setup = strategy_setup(p, 8, false);
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ExperimentSetup ooc = setup;
  ooc.ooc.enabled = true;  // budget 0 = unlimited
  const ExperimentOutcome out = run_prepared(prepared, ooc);
  // Factors linger on the stack until their write lands, so the in-core
  // residency can only grow; nothing ever spills.
  EXPECT_GE(out.max_stack_peak, incore.max_stack_peak);
  EXPECT_EQ(out.parallel.ooc_spill_entries, 0);
  EXPECT_EQ(out.parallel.ooc_stall_time, 0.0);
  EXPECT_TRUE(out.parallel.ooc_feasible());
  EXPECT_GT(out.parallel.ooc_factor_write_entries, 0);
}

TEST(OocSim, DeterministicAcrossRuns) {
  const Problem p = make_problem(ProblemId::kXenon2, 0.3);
  ExperimentSetup setup = strategy_setup(p, 8, true);
  setup.ooc.enabled = true;
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  setup.ooc.budget = incore.max_stack_peak;  // forces some disk action
  const ExperimentOutcome a = run_prepared(prepared, setup);
  const ExperimentOutcome b = run_prepared(prepared, setup);
  EXPECT_EQ(a.max_stack_peak, b.max_stack_peak);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.parallel.ooc_spill_entries, b.parallel.ooc_spill_entries);
  EXPECT_DOUBLE_EQ(a.parallel.ooc_stall_time, b.parallel.ooc_stall_time);
}

TEST(OocSim, SharedDiskIsSlowerThanPerProcessorDisks) {
  const Problem p = make_problem(ProblemId::kMsdoor, 0.3);
  ExperimentSetup setup = strategy_setup(p, 8, false);
  setup.ooc.enabled = true;
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  setup.ooc.budget = incore.max_stack_peak;
  ExperimentSetup shared = setup;
  shared.ooc.disk.shared = true;
  const ExperimentOutcome local = run_prepared(prepared, setup);
  const ExperimentOutcome contended = run_prepared(prepared, shared);
  EXPECT_GE(contended.makespan, local.makespan);
}

// ---- spill-victim policies, end to end ------------------------------------

class SpillPolicyEndToEnd : public ::testing::TestWithParam<SpillPolicy> {};

TEST_P(SpillPolicyEndToEnd, BudgetedRunCompletesAndBalancesIo) {
  const SpillPolicy policy = GetParam();
  const Problem p = make_problem(ProblemId::kMsdoor, 0.25);
  ExperimentSetup setup = strategy_setup(p, 8, false);
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ExperimentSetup ooc = setup;
  ooc.ooc.enabled = true;
  ooc.ooc.spill_policy = policy;
  // Below the in-core peak: spills must actually happen.
  ooc.ooc.budget = incore.max_stack_peak - incore.max_stack_peak / 4;
  const ExperimentOutcome out = run_prepared(prepared, ooc);
  EXPECT_GT(out.parallel.ooc_spill_entries, 0)
      << spill_policy_name(policy) << " never spilled";
  // Spilled blocks are reread exactly once, at assembly of the parent.
  EXPECT_EQ(out.parallel.ooc_spill_entries, out.parallel.ooc_reload_entries);
  EXPECT_EQ(out.parallel.ooc_factor_write_entries,
            prepared.analysis->tree.total_factor_entries());
  // Deterministic under every policy.
  const ExperimentOutcome again = run_prepared(prepared, ooc);
  EXPECT_EQ(out.parallel.ooc_spill_entries,
            again.parallel.ooc_spill_entries);
  EXPECT_DOUBLE_EQ(out.makespan, again.makespan);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SpillPolicyEndToEnd,
                         ::testing::Values(SpillPolicy::kLargestFirst,
                                           SpillPolicy::kSmallestFirst,
                                           SpillPolicy::kOldestFirst,
                                           SpillPolicy::kRoundRobin),
                         [](const auto& info) {
                           std::string name = spill_policy_name(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---- I/O disciplines: synchronous vs write-behind -------------------------

TEST(OocIoMode, NamesAreStable) {
  EXPECT_STREQ(ooc_io_mode_name(OocIoMode::kAdmissionDrain),
               "admission-drain");
  EXPECT_STREQ(ooc_io_mode_name(OocIoMode::kSynchronous), "synchronous");
  EXPECT_STREQ(ooc_io_mode_name(OocIoMode::kWriteBehind), "write-behind");
}

// The tentpole acceptance experiment: at the 1.2x-peak budget the
// write-behind buffer must beat blocking I/O outright — strictly lower
// makespan on at least 6 of the 8 problems per strategy, with identical
// feasibility verdicts — because the factor stream now overlaps compute.
class WriteBehindAcceptance : public ::testing::TestWithParam<bool> {};

TEST_P(WriteBehindAcceptance, BeatsSynchronousOnAtLeastSixOfEight) {
  const bool memory_strategy = GetParam();
  int strictly_faster = 0;
  for (ProblemId pid : all_problem_ids()) {
    const Problem p = make_problem(pid, 0.25);
    ExperimentSetup setup = strategy_setup(p, 8, memory_strategy);
    const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
    const ExperimentOutcome incore = run_prepared(prepared, setup);
    ExperimentSetup sync = setup;
    sync.ooc.enabled = true;
    sync.ooc.budget = incore.max_stack_peak + incore.max_stack_peak / 5;
    sync.ooc.io_mode = OocIoMode::kSynchronous;
    const ExperimentOutcome s = run_prepared(prepared, sync);
    ExperimentSetup wb = sync;
    wb.ooc.io_mode = OocIoMode::kWriteBehind;
    const ExperimentOutcome w = run_prepared(prepared, wb);
    if (w.makespan < s.makespan) ++strictly_faster;
    // Both modes honor the same budget and write the same factor volume.
    EXPECT_EQ(s.parallel.ooc_feasible(), w.parallel.ooc_feasible())
        << problem_name(pid);
    EXPECT_EQ(s.parallel.ooc_factor_write_entries,
              w.parallel.ooc_factor_write_entries)
        << problem_name(pid);
    // The buffer hid I/O behind compute and reported it.
    EXPECT_GT(w.parallel.ooc_overlap_time, 0.0) << problem_name(pid);
    EXPECT_GT(w.parallel.ooc_buffer_high_water, 0) << problem_name(pid);
    EXPECT_EQ(s.parallel.ooc_overlap_time, 0.0) << problem_name(pid);
  }
  EXPECT_GE(strictly_faster, 6);
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, WriteBehindAcceptance,
                         ::testing::Bool(), [](const auto& info) {
                           return std::string(info.param ? "memory"
                                                         : "workload");
                         });

TEST(OocIoMode, WriteBehindIsDeterministicAcrossRuns) {
  const Problem p = make_problem(ProblemId::kXenon2, 0.3);
  ExperimentSetup setup = strategy_setup(p, 8, true);
  setup.ooc.enabled = true;
  setup.ooc.io_mode = OocIoMode::kWriteBehind;
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  setup.ooc.budget = incore.max_stack_peak;
  const ExperimentOutcome a = run_prepared(prepared, setup);
  const ExperimentOutcome b = run_prepared(prepared, setup);
  EXPECT_EQ(a.max_stack_peak, b.max_stack_peak);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.parallel.ooc_overlap_time, b.parallel.ooc_overlap_time);
  EXPECT_EQ(a.parallel.ooc_buffer_high_water,
            b.parallel.ooc_buffer_high_water);
}

TEST(OocIoMode, WriteBehindLowersResidencyBelowAdmissionDrain) {
  // Factors leave the stack at retirement instead of at write landing, so
  // the unbudgeted in-core residency can only shrink.
  const Problem p = make_problem(ProblemId::kTwotone, 0.3);
  ExperimentSetup setup = strategy_setup(p, 8, false);
  setup.ooc.enabled = true;  // budget 0 = unlimited
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  ExperimentSetup wb = setup;
  wb.ooc.io_mode = OocIoMode::kWriteBehind;
  const ExperimentOutcome drain = run_prepared(prepared, setup);
  const ExperimentOutcome overlap = run_prepared(prepared, wb);
  EXPECT_LE(overlap.max_stack_peak, drain.max_stack_peak);
  EXPECT_EQ(overlap.parallel.ooc_spill_entries, 0);
}

TEST(OocIoMode, BoundedBufferStallsWhenTheDiskFallsBehind) {
  // A tiny buffer on a slow disk must fill up and throttle compute; the
  // run still completes, honestly reporting stalls and a high-water mark
  // at (or below) the configured capacity plus one oversized block.
  const Problem p = make_problem(ProblemId::kMsdoor, 0.25);
  ExperimentSetup setup = strategy_setup(p, 8, false);
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ExperimentSetup wb = setup;
  wb.ooc.enabled = true;
  wb.ooc.io_mode = OocIoMode::kWriteBehind;
  wb.ooc.budget = incore.max_stack_peak + incore.max_stack_peak / 5;
  wb.ooc.write_buffer_entries = 64;  // absurdly small
  wb.ooc.disk.write_bandwidth = 1e6;
  const ExperimentOutcome out = run_prepared(prepared, wb);
  EXPECT_GT(out.parallel.ooc_stall_time, 0.0);
  EXPECT_GT(out.parallel.ooc_buffer_high_water, 0);
  EXPECT_EQ(out.parallel.ooc_factor_write_entries,
            prepared.analysis->tree.total_factor_entries());
}

TEST(OocIoMode, TraceRecordsTypedIoSamples) {
  const Problem p = make_problem(ProblemId::kMsdoor, 0.25);
  ExperimentSetup setup = strategy_setup(p, 4, false);
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  const ExperimentOutcome incore = run_prepared(prepared, setup);
  ExperimentSetup ooc = setup;
  ooc.ooc.enabled = true;
  ooc.ooc.io_mode = OocIoMode::kWriteBehind;
  ooc.ooc.budget = incore.max_stack_peak - incore.max_stack_peak / 4;
  Trace trace;
  const ExperimentOutcome out = run_prepared(prepared, ooc, &trace);
  ASSERT_FALSE(trace.io_samples().empty());
  count_t writes = 0, spills = 0, reloads = 0;
  for (const Trace::IoSample& s : trace.io_samples()) {
    EXPECT_GE(s.finish, s.time);  // every operation takes disk time
    switch (s.kind) {
      case TraceIo::kFactorWrite: writes += s.entries; break;
      case TraceIo::kSpill: spills += s.entries; break;
      case TraceIo::kReload: reloads += s.entries; break;
    }
  }
  EXPECT_EQ(writes, out.parallel.ooc_factor_write_entries);
  EXPECT_EQ(spills, out.parallel.ooc_spill_entries);
  EXPECT_EQ(reloads, out.parallel.ooc_reload_entries);
  // The run processed one disk event per buffered write.
  EXPECT_GT(out.parallel.io_events, 0u);
}

TEST(OocIoMode, SynchronousChargesEveryWriteAsStall) {
  const Problem p = make_problem(ProblemId::kUltrasound3, 0.25);
  ExperimentSetup setup = strategy_setup(p, 8, false);
  setup.ooc.enabled = true;  // unlimited budget: stalls are pure write time
  setup.ooc.io_mode = OocIoMode::kSynchronous;
  const ExperimentOutcome out = run_experiment(p.matrix, setup);
  EXPECT_GT(out.parallel.ooc_stall_time, 0.0);
  EXPECT_EQ(out.parallel.ooc_spill_entries, 0);
}

// ---- planner vs brute force on small trees --------------------------------

struct SmallInstance {
  Analysis analysis;
  StaticMapping mapping;
  SchedConfig config;
};

SmallInstance small_instance(index_t nx, index_t ny, index_t nprocs,
                             bool memory_strategy) {
  GridSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.wide_stencil = false;
  AnalysisOptions options;
  options.ordering = OrderingKind::kNestedDissection;
  options.want_structure = false;
  SmallInstance inst{.analysis = analyze(grid_matrix(spec), options),
                     .mapping = {},
                     .config = {}};
  MappingOptions mapping;
  mapping.nprocs = nprocs;
  inst.mapping = compute_mapping(inst.analysis.tree, inst.analysis.memory,
                                 mapping);
  inst.config.machine.nprocs = nprocs;
  if (memory_strategy) {
    inst.config.slave_strategy = SlaveStrategy::kMemoryImproved;
    inst.config.task_strategy = TaskStrategy::kMemoryAware;
  }
  return inst;
}

class PlannerBruteForce
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, bool>> {};

TEST_P(PlannerBruteForce, BinarySearchMatchesExhaustiveScan) {
  const auto [n, nprocs, memory_strategy] = GetParam();
  const SmallInstance inst = small_instance(n, n, nprocs, memory_strategy);
  ASSERT_LE(inst.analysis.tree.num_nodes(), 50);

  const PlannerResult plan = plan_minimum_budget(
      inst.analysis.tree, inst.analysis.memory, inst.mapping,
      inst.analysis.traversal, inst.config);

  // Exhaustive scan: the smallest feasible budget, one entry at a time.
  count_t brute = 0;
  for (count_t b = 1; b <= plan.incore_peak + 1; ++b) {
    const BudgetPoint point =
        evaluate_budget(inst.analysis.tree, inst.mapping,
                        inst.analysis.traversal, inst.config, b);
    if (point.feasible) {
      brute = b;
      break;
    }
  }
  ASSERT_GT(brute, 0) << "no feasible budget up to the in-core peak";
  EXPECT_EQ(plan.min_budget, brute);
  EXPECT_LE(plan.min_budget, plan.incore_peak);
  EXPECT_TRUE(plan.at_min.feasible);
}

INSTANTIATE_TEST_SUITE_P(
    SmallTrees, PlannerBruteForce,
    ::testing::Values(std::make_tuple(4, 2, false),
                      std::make_tuple(5, 2, true),
                      std::make_tuple(5, 4, false),
                      std::make_tuple(6, 4, true),
                      std::make_tuple(6, 2, false)),
    [](const auto& info) {
      return "grid" + std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_memory" : "_workload");
    });

TEST(Planner, TighterBudgetsNeverCheaperOnIo) {
  const SmallInstance inst = small_instance(6, 6, 4, false);
  PlannerOptions options;
  options.curve_points = 5;
  const PlannerResult plan = plan_minimum_budget(
      inst.analysis.tree, inst.analysis.memory, inst.mapping,
      inst.analysis.traversal, inst.config, options);
  ASSERT_EQ(plan.curve.size(), 5u);
  // The curve is ascending in budget, and every point writes at least the
  // factor volume (the floor any budget pays).
  for (std::size_t k = 1; k < plan.curve.size(); ++k)
    EXPECT_GT(plan.curve[k].budget, plan.curve[k - 1].budget);
  for (const BudgetPoint& point : plan.curve) {
    EXPECT_TRUE(point.feasible);
    EXPECT_GE(point.io_entries(), plan.unlimited.factor_write_entries);
  }
  // At the minimum budget the run pays for it in disk traffic or stalls
  // whenever the minimum actually undercuts the in-core peak.
  if (plan.min_budget < plan.incore_peak) {
    EXPECT_TRUE(plan.at_min.spill_entries > 0 || plan.at_min.stall_time > 0.0);
  }
}

TEST(Planner, BudgetOfMinMinusOneIsInfeasible) {
  const SmallInstance inst = small_instance(5, 5, 4, true);
  const PlannerResult plan = plan_minimum_budget(
      inst.analysis.tree, inst.analysis.memory, inst.mapping,
      inst.analysis.traversal, inst.config);
  ASSERT_GT(plan.min_budget, 1);
  const BudgetPoint below =
      evaluate_budget(inst.analysis.tree, inst.mapping,
                      inst.analysis.traversal, inst.config,
                      plan.min_budget - 1);
  EXPECT_FALSE(below.feasible);
}

}  // namespace
}  // namespace memfront
