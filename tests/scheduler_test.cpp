// Coverage of the dynamic, policy-consulted worker-pool scheduler
// (solver/scheduler):
//   - bitwise identity to the serial driver at 1/2/4/8 workers, for
//     both policies, with stealing on and off (the PR-5 goldens pin the
//     serial driver, so identity to it is identity to the goldens),
//   - determinism mode (steal=off) reproduces the static schedule:
//     zero steals, bit-identical reruns,
//   - steal-storm stress: a 1-wide chain tree with 8 workers — every
//     upper task readies one at a time, everyone fights over it,
//   - policy-consultation counting through a mock SchedulerPolicy: the
//     pool consults select_task and admit for every dispatched task,
//     and the OOC coordinator consults per reservation admission,
//   - the targeted-wakeup discipline: wakeups stay near the number of
//     readied tasks instead of completions x workers,
//   - intra-front sharing: idle workers join the top fronts' trailing
//     updates, and the factors stay bit-identical in core and at the
//     minimum out-of-core budget,
//   - the downward direction (the backward solve sweep's), driven bare
//     from threads: each task once, after its parent, one wakeup per
//     readied task, on a chain, an arrowhead and a forest,
//   - the OOC memory wait, driven bare from threads (the waiter joins a
//     posted job, returns on a release past what it saw, returns on
//     failure) and end to end at the minimum budget, where workers
//     waiting for memory help the front that holds it,
//   - no lost wakeups: every run here ends with zero tick rescues,
//   - one worker's in-core ledger peak is predict_arena_peak of the
//     order it ran (dispatches logged by a recording mock policy).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "memfront/frontal/arena.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/scheduler.hpp"
#include "memfront/sparse/problems.hpp"
#include "tree_shapes.hpp"

namespace memfront {
namespace {

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_bitwise_equal(const Factorization& a, const Factorization& b,
                          const std::string& label) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  EXPECT_EQ(a.row_of, b.row_of) << label << ": pivot sequences differ";
  EXPECT_EQ(a.stats.factor_entries, b.stats.factor_entries) << label;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(a.nodes[i].panel, b.nodes[i].panel))
        << label << ": panel of node " << i;
    ASSERT_TRUE(bitwise_equal(a.nodes[i].u12, b.nodes[i].u12))
        << label << ": u12 of node " << i;
  }
}

Analysis analyzed_problem(ProblemId id, double scale, OrderingKind ord,
                          bool symmetric = false) {
  const Problem p = make_problem(id, scale);
  AnalysisOptions opt;
  opt.ordering = ord;
  opt.symmetric = symmetric;
  return analyze(p.matrix, opt);
}

/// The shape-pinned matrices of tree_shapes.hpp keep their shape under
/// the natural ordering.
Analysis natural_analysis(const CscMatrix& a) {
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNatural;
  return analyze(a, opt);
}

/// Problems whose top fronts have trailing updates above kShareMinFlops:
/// an LU (TWOTONE, root front 482) and an LDLt (GUPTA3, root front 502).
struct SharingCase {
  ProblemId id;
  bool ldlt;
  double scale;
};
constexpr SharingCase kSharingCases[] = {{ProblemId::kTwotone, false, 0.2},
                                         {ProblemId::kGupta3, true, 0.3}};

Analysis sharing_analysis(const SharingCase& c) {
  return analyzed_problem(c.id, c.scale, OrderingKind::kNestedDissection,
                          c.ldlt);
}

TEST(Scheduler, BitIdenticalAcrossPoliciesWorkersAndStealing) {
  const Analysis analysis =
      analyzed_problem(ProblemId::kXenon2, 0.16, OrderingKind::kAmd);
  const Factorization serial = numeric_factorize(analysis);
  for (RealPolicy policy : {RealPolicy::kWorkload, RealPolicy::kMemory}) {
    for (bool steal : {false, true}) {
      for (unsigned nthreads : {1u, 2u, 4u, 8u}) {
        ParallelNumericOptions popt;
        popt.nthreads = nthreads;
        popt.nprocs = 8;  // fixed mapping regardless of the host
        popt.sched.policy = policy;
        popt.sched.steal = steal;
        ParallelNumericStats stats;
        const Factorization fact =
            parallel_numeric_factorize(analysis, popt, &stats);
        const std::string label = std::string(real_policy_name(policy)) +
                                  (steal ? "/steal" : "/static") +
                                  "/workers=" + std::to_string(nthreads);
        expect_bitwise_equal(serial, fact, label);
        if (!steal) EXPECT_EQ(stats.sched.steals, 0u) << label;
        EXPECT_EQ(stats.sched.completions,
                  static_cast<std::uint64_t>(stats.num_subtrees) +
                      static_cast<std::uint64_t>(stats.num_upper_nodes))
            << label;
      }
    }
  }
}

TEST(Scheduler, DeterminismModeIsRepeatableWithZeroSteals) {
  const Analysis analysis =
      analyzed_problem(ProblemId::kTwotone, 0.16, OrderingKind::kAmf);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  popt.nprocs = 4;
  popt.sched.steal = false;
  ParallelNumericStats s1, s2;
  const Factorization a = parallel_numeric_factorize(analysis, popt, &s1);
  const Factorization b = parallel_numeric_factorize(analysis, popt, &s2);
  expect_bitwise_equal(a, b, "determinism rerun");
  EXPECT_EQ(s1.sched.steals, 0u);
  EXPECT_EQ(s2.sched.steals, 0u);
  EXPECT_EQ(s1.sched.steal_chunks, 0u);
  EXPECT_FALSE(s1.steal);
  EXPECT_STREQ(s1.policy, "workload");
}

TEST(Scheduler, StealStormOnChainTree) {
  // 1-wide tree, 8 workers: at most one ready task exists at any time,
  // so seven workers continuously try to steal it. The result must
  // still match the serial driver bit for bit and every task must run
  // exactly once.
  const Analysis analysis = natural_analysis(chain_matrix(600));
  const Factorization serial = numeric_factorize(analysis);
  for (RealPolicy policy : {RealPolicy::kWorkload, RealPolicy::kMemory}) {
    ParallelNumericOptions popt;
    popt.nthreads = 8;
    popt.nprocs = 8;
    popt.sched.policy = policy;
    ParallelNumericStats stats;
    const Factorization fact =
        parallel_numeric_factorize(analysis, popt, &stats);
    expect_bitwise_equal(serial, fact, real_policy_name(policy));
    EXPECT_EQ(stats.sched.completions,
              static_cast<std::uint64_t>(stats.num_subtrees) +
                  static_cast<std::uint64_t>(stats.num_upper_nodes));
  }
}

/// Mock policy: LIFO dispatch, flat steal metric, instant admission —
/// counts every consultation.
class CountingPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "counting"; }
  std::size_t select_task(const TaskQuery& query) override {
    ++select_task_calls;
    last_pool_size = query.pool.size();
    return query.pool.size() - 1;
  }
  count_t slave_metric(index_t, const SlaveQuery&) const override {
    ++slave_metric_calls;
    return 0;
  }
  std::vector<SlaveShare> select_slaves(
      const SlaveQuery&, std::vector<SlaveCandidate>) override {
    ++select_slaves_calls;
    return {};
  }
  double admit(index_t, count_t) override {
    ++admit_calls;
    return 0.0;
  }

  std::size_t select_task_calls = 0;
  mutable std::size_t slave_metric_calls = 0;
  std::size_t select_slaves_calls = 0;
  std::size_t admit_calls = 0;
  std::size_t last_pool_size = 0;
};

/// Mock policy: LIFO dispatch like the workload policy, logging the
/// pool node each dispatch chose (a subtree task shows as its root).
class RecordingPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "recording"; }
  std::size_t select_task(const TaskQuery& query) override {
    chosen.push_back(query.pool.back());
    return query.pool.size() - 1;
  }
  count_t slave_metric(index_t, const SlaveQuery&) const override {
    return 0;
  }
  std::vector<SlaveShare> select_slaves(
      const SlaveQuery&, std::vector<SlaveCandidate>) override {
    return {};
  }
  double admit(index_t, count_t) override { return 0.0; }

  std::vector<index_t> chosen;
};

TEST(Scheduler, OneWorkerLedgerPeakIsTheArenaModelOfItsOrder) {
  // One worker runs its tasks one after the other, so the in-core ledger
  // charges the LIFO stack discipline over the order it ran the nodes
  // in: every task's nodes in postorder, in dispatch order.
  struct OrderCase {
    ProblemId id;
    bool ldlt;
  };
  for (const OrderCase c : {OrderCase{ProblemId::kXenon2, false},
                            OrderCase{ProblemId::kShip003, true}}) {
    const std::string label = problem_name(c.id);
    const Analysis analysis = analyzed_problem(
        c.id, 0.2, OrderingKind::kNestedDissection, c.ldlt);
    RecordingPolicy recording;
    ParallelNumericOptions popt;
    popt.nthreads = 1;
    popt.sched.policy_override = &recording;
    ParallelNumericStats stats;
    const Factorization fact =
        parallel_numeric_factorize(analysis, popt, &stats);
    ASSERT_GT(stats.num_subtrees, 0) << label;
    ASSERT_GT(stats.num_upper_nodes, 0) << label;

    // The driver's own cut at one processor, to expand subtree tasks.
    const Subtrees subtrees = find_subtrees(analysis.tree, analysis.memory, 1);
    std::vector<std::vector<index_t>> subtree_nodes;
    std::vector<index_t> upper_nodes;
    split_subtree_nodes(subtrees, analysis.traversal, subtree_nodes,
                        upper_nodes);
    std::vector<index_t> order;
    for (index_t node : recording.chosen) {
      const index_t s = subtrees.node_subtree[static_cast<std::size_t>(node)];
      if (s == kNone) {
        order.push_back(node);
        continue;
      }
      const auto& nodes = subtree_nodes[static_cast<std::size_t>(s)];
      order.insert(order.end(), nodes.begin(), nodes.end());
    }
    ASSERT_EQ(order.size(),
              static_cast<std::size_t>(analysis.tree.num_nodes()))
        << label;
    EXPECT_EQ(stats.total_arena_peak_doubles,
              predict_arena_peak(analysis.tree, order))
        << label;
    expect_bitwise_equal(numeric_factorize(analysis), fact, label);
  }
}

TEST(Scheduler, EveryDispatchAndAdmissionConsultsThePolicy) {
  const Analysis analysis =
      analyzed_problem(ProblemId::kXenon2, 0.16, OrderingKind::kAmd);
  CountingPolicy counting;
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  popt.nprocs = 4;
  popt.sched.policy_override = &counting;
  ParallelNumericStats stats;
  const Factorization fact =
      parallel_numeric_factorize(analysis, popt, &stats);
  const std::size_t tasks = static_cast<std::size_t>(stats.num_subtrees) +
                            static_cast<std::size_t>(stats.num_upper_nodes);
  ASSERT_GT(tasks, 0u);
  // One select_task per dispatched task, one admit per activation.
  EXPECT_EQ(counting.select_task_calls, tasks);
  EXPECT_EQ(counting.admit_calls, tasks);
  EXPECT_EQ(stats.sched.dispatch_consults, tasks);
  EXPECT_EQ(stats.sched.admit_consults, tasks);
  EXPECT_STREQ(stats.policy, "counting");
  // The mock still produces the canonical result: it only reorders.
  expect_bitwise_equal(numeric_factorize(analysis), fact, "counting policy");
}

TEST(Scheduler, OocAdmissionsConsultThePolicyPerReservation) {
  const Analysis analysis =
      analyzed_problem(ProblemId::kTwotone, 0.14, OrderingKind::kAmd);
  CountingPolicy counting;
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  popt.nprocs = 4;
  popt.sched.policy_override = &counting;
  popt.ooc.enabled = true;
  popt.ooc.budget_doubles = 0;  // unlimited: no spills, still admitted
  popt.ooc.spill_factors = false;
  ParallelNumericStats stats;
  const Factorization fact =
      parallel_numeric_factorize(analysis, popt, &stats);
  // Every node passes one begin_node reservation through the policy.
  EXPECT_EQ(fact.stats.ooc.policy_admissions, analysis.tree.num_nodes());
  const std::size_t tasks = static_cast<std::size_t>(stats.num_subtrees) +
                            static_cast<std::size_t>(stats.num_upper_nodes);
  // Dispatch admissions plus one per reservation.
  EXPECT_EQ(counting.admit_calls,
            tasks + static_cast<std::size_t>(analysis.tree.num_nodes()));
  expect_bitwise_equal(numeric_factorize(analysis), fact, "ooc counting");
}

TEST(Scheduler, TargetedWakeupsStayFarBelowBroadcast) {
  // The second problem shares its top fronts: helper wakeups are counted
  // apart and must not leak into the task-wakeup bound.
  for (const Analysis& analysis :
       {analyzed_problem(ProblemId::kXenon2, 0.16, OrderingKind::kAmd),
        sharing_analysis(kSharingCases[0])}) {
    ParallelNumericOptions popt;
    popt.nthreads = 4;
    popt.nprocs = 4;
    ParallelNumericStats stats;
    obs::MetricsRegistry::global().reset();
    (void)parallel_numeric_factorize(analysis, popt, &stats);
    const std::uint64_t completions = stats.sched.completions;
    ASSERT_GT(completions, 0u);
    // The old pool broadcast on every completion: completions x (workers)
    // notifies. Targeted wakeups fire only for readied tasks, steal
    // cascades, and the final drain.
    EXPECT_LE(stats.sched.wakeups,
              completions + stats.sched.steal_chunks + stats.workers);
    // A post wakes at most the other workers, once.
    EXPECT_LE(stats.sched.helper_wakeups,
              stats.sched.shared_updates * (stats.workers - 1));
    const obs::MetricsRegistry& m = obs::MetricsRegistry::global();
    for (const auto& [name, value] :
         {std::pair{"solver.sched.shared_updates", stats.sched.shared_updates},
          std::pair{"solver.sched.helper_blocks", stats.sched.helper_blocks}}) {
      const obs::Counter* counter = m.find_counter(name);
      ASSERT_NE(counter, nullptr) << name;
      EXPECT_EQ(counter->value(), static_cast<std::int64_t>(value)) << name;
    }
  }
}

TEST(Scheduler, SharedFrontUpdatesAreBitIdentical) {
  // Idle workers join the running front's trailing updates, so the top
  // of the tree runs on several threads — yet every element still gets
  // its whole update chain from one thread, in the serial order.
  for (const SharingCase& c : kSharingCases) {
    const Analysis analysis = sharing_analysis(c);
    const Factorization serial = numeric_factorize(analysis);
    for (RealPolicy policy : {RealPolicy::kWorkload, RealPolicy::kMemory}) {
      for (bool steal : {false, true}) {
        for (unsigned nthreads : {2u, 4u, 8u}) {
          ParallelNumericOptions popt;
          popt.nthreads = nthreads;
          popt.nprocs = 8;
          popt.sched.policy = policy;
          popt.sched.steal = steal;
          ParallelNumericStats stats;
          const Factorization fact =
              parallel_numeric_factorize(analysis, popt, &stats);
          const std::string label =
              problem_name(c.id) + "/" + real_policy_name(policy) +
              (steal ? "/steal" : "/static") +
              "/workers=" + std::to_string(nthreads);
          expect_bitwise_equal(serial, fact, label);
          EXPECT_GT(stats.sched.shared_updates, 0u) << label;
          EXPECT_LE(stats.sched.helper_wakeups,
                    stats.sched.shared_updates * (nthreads - 1))
              << label;
          // Helping is not dispatching: one consult per task, as always.
          EXPECT_EQ(stats.sched.dispatch_consults, stats.sched.completions)
              << label;
        }
      }
    }
  }
}

TEST(Scheduler, SharedFrontUpdatesAtTheMinimumOocBudget) {
  // Helpers write into the owner's front and charge nothing, so the
  // budget holds exactly as without sharing.
  const Analysis analysis = sharing_analysis(kSharingCases[0]);
  const Factorization serial = numeric_factorize(analysis);
  const count_t budget =
      predict_min_ooc_budget(analysis.tree, analysis.traversal);
  ParallelNumericOptions popt;
  popt.nthreads = 4;
  popt.nprocs = 4;
  popt.sched.policy = RealPolicy::kMemory;
  popt.ooc.enabled = true;
  popt.ooc.budget_doubles = budget;
  ParallelNumericStats stats;
  const Factorization fact =
      parallel_numeric_factorize(analysis, popt, &stats);
  ensure_factors_resident(fact);
  expect_bitwise_equal(serial, fact, "budgeted");
  EXPECT_LE(fact.stats.ooc.charged_peak_doubles, budget);
  EXPECT_EQ(fact.stats.ooc.overrun_peak_doubles, 0);
}

/// Drives a downward run from `kWorkers` threads with no numeric work
/// and checks the runtime's contract: every task dispatched exactly once
/// and never before its parent's task completed, one completion per
/// task, wakeups within the targeted bound, and no run without stealing.
void expect_downward_contract(const Analysis& analysis,
                              const std::string& label) {
  constexpr unsigned kWorkers = 4;
  const AssemblyTree& tree = analysis.tree;
  const Subtrees subtrees = find_subtrees(tree, analysis.memory, kWorkers);
  std::vector<std::vector<index_t>> subtree_nodes;
  std::vector<index_t> upper_nodes;
  split_subtree_nodes(subtrees, analysis.traversal, subtree_nodes,
                      upper_nodes);
  NumericScheduler sched(tree, subtrees, subtree_nodes, upper_nodes,
                         fold_subtrees(subtrees, kWorkers), kWorkers,
                         RealSchedOptions{}, 0,
                         NumericScheduler::Direction::kDownward);

  // Indexed by the task's root node.
  const std::size_t nn = static_cast<std::size_t>(tree.num_nodes());
  std::vector<std::atomic<int>> dispatched(nn);
  std::vector<std::atomic<bool>> done(nn);
  std::atomic<int> early{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWorkers; ++w)
    threads.emplace_back([&, w] {
      NumericScheduler::Task task;
      while (sched.next_task(w, task)) {
        const index_t root =
            task.kind == NumericScheduler::Task::Kind::kSubtree
                ? subtrees.roots[static_cast<std::size_t>(task.id)]
                : task.id;
        dispatched[static_cast<std::size_t>(root)].fetch_add(1);
        const index_t parent = tree.parent(root);
        if (parent != kNone && !done[static_cast<std::size_t>(parent)].load())
          early.fetch_add(1);
        std::this_thread::yield();
        done[static_cast<std::size_t>(root)].store(true);
        sched.complete(w, task);
      }
    });
  for (std::thread& t : threads) t.join();

  std::vector<index_t> task_roots = upper_nodes;
  task_roots.insert(task_roots.end(), subtrees.roots.begin(),
                    subtrees.roots.end());
  for (index_t r : task_roots)
    EXPECT_EQ(dispatched[static_cast<std::size_t>(r)].load(), 1)
        << label << ": task of node " << r;
  EXPECT_EQ(early.load(), 0) << label << ": dispatched before the parent";
  const SchedStats& stats = sched.stats();
  EXPECT_EQ(stats.completions, task_roots.size()) << label;
  EXPECT_LE(stats.wakeups, stats.completions + stats.steal_chunks + kWorkers)
      << label;

  // No static top-down mode: a downward run steals.
  RealSchedOptions no_steal;
  no_steal.steal = false;
  EXPECT_THROW(NumericScheduler(tree, subtrees, subtree_nodes, upper_nodes,
                                {}, kWorkers, no_steal, 0,
                                NumericScheduler::Direction::kDownward),
               InternalError)
      << label;
}

TEST(Scheduler, DownwardRunsDispatchEachTaskOnceAfterItsParent) {
  // The chain readies one task at a time.
  expect_downward_contract(natural_analysis(chain_matrix(600)), "chain");

  // The arrowhead: the border's front completes and readies a task per
  // block at once.
  const Analysis arrowhead = natural_analysis(block_matrix(4, 150, 20));
  ASSERT_EQ(arrowhead.tree.roots().size(), 1u);
  ASSERT_EQ(arrowhead.tree.children(arrowhead.tree.roots()[0]).size(), 4u);
  expect_downward_contract(arrowhead, "arrowhead");

  // The forest: several roots seed the run.
  const Analysis forest = natural_analysis(block_matrix(4, 150, 0));
  ASSERT_EQ(forest.tree.roots().size(), 4u);
  expect_downward_contract(forest, "forest");
}

TEST(Scheduler, MemoryWaiterJoinsJobsAndWakesOnReleaseAndFailure) {
  const Analysis analysis = natural_analysis(chain_matrix(600));
  const AssemblyTree& tree = analysis.tree;
  constexpr unsigned kWorkers = 2;
  const Subtrees subtrees = find_subtrees(tree, analysis.memory, kWorkers);
  std::vector<std::vector<index_t>> subtree_nodes;
  std::vector<index_t> upper_nodes;
  split_subtree_nodes(subtrees, analysis.traversal, subtree_nodes,
                      upper_nodes);
  NumericScheduler sched(tree, subtrees, subtree_nodes, upper_nodes,
                         fold_subtrees(subtrees, kWorkers), kWorkers,
                         RealSchedOptions{}, 0);
  // Worker 0 holds a task and waits for memory past release epoch 0.
  NumericScheduler::Task task;
  ASSERT_TRUE(sched.next_task(0, task));

  // The waiter joins a posted job. This thread owns the job, and a
  // block it claims does not finish until another thread ran one: only
  // the waiter can.
  const std::thread::id owner = std::this_thread::get_id();
  std::atomic<int> helped{0};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    (void)sched.wait_for_memory(0, /*seen=*/0);
    returned = true;
  });
  sched.for_each(2, [&](std::size_t) {
    if (std::this_thread::get_id() != owner) {
      ++helped;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (helped == 0 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_GT(helped.load(), 0) << "the memory waiter never joined the job";
  // A release no later than what the waiter saw does not end its wait.
  sched.memory_released(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  // The waiter returns once a later release is reported.
  sched.memory_released(1);
  waiter.join();
  EXPECT_EQ(sched.stats().memory_wait_blocks,
            static_cast<std::uint64_t>(helped.load()));
  EXPECT_EQ(sched.stats().helper_blocks, sched.stats().memory_wait_blocks);

  // A waiter whose release already happened returns at once.
  (void)sched.wait_for_memory(0, /*seen=*/0);

  // The waiter returns when the run fails.
  std::thread failing([&] { (void)sched.wait_for_memory(0, /*seen=*/1); });
  sched.fail();
  failing.join();
  EXPECT_EQ(sched.stats().tick_rescues, 0u);
}

TEST(Scheduler, MemoryWaitersHelpTheFrontThatHoldsTheBudget) {
  // Five dense block fronts under a border root: at the floor each
  // needs almost the whole budget, so they run one at a time, and the
  // workers holding the others wait for memory inside begin_node. They
  // help the running front's trailing updates instead of sleeping.
  const Analysis analysis = natural_analysis(dense_block_matrix(6, 448, 64));
  ASSERT_EQ(analysis.tree.num_nodes(), 6);
  const Factorization serial = numeric_factorize(analysis);
  const count_t budget =
      predict_min_ooc_budget(analysis.tree, analysis.traversal);
  for (unsigned nthreads : {3u, 4u}) {
    const std::string label = "workers=" + std::to_string(nthreads);
    ParallelNumericOptions popt;
    popt.nthreads = nthreads;
    popt.nprocs = nthreads;
    popt.sched.policy = RealPolicy::kMemory;
    popt.ooc.enabled = true;
    popt.ooc.budget_doubles = budget;
    ParallelNumericStats stats;
    const Factorization fact =
        parallel_numeric_factorize(analysis, popt, &stats);
    ensure_factors_resident(fact);
    expect_bitwise_equal(serial, fact, label);
    EXPECT_LE(fact.stats.ooc.charged_peak_doubles, budget) << label;
    EXPECT_EQ(fact.stats.ooc.overrun_peak_doubles, 0) << label;
    EXPECT_GT(stats.sched.memory_wait_blocks, 0u) << label;
    EXPECT_LE(stats.sched.memory_wait_blocks, stats.sched.helper_blocks)
        << label;
    EXPECT_EQ(stats.sched.tick_rescues, 0u) << label;
  }
}

TEST(Scheduler, StealBoundHelpersAreConsistent) {
  // Nested dissection: the cut has both subtree and upper tasks (at this
  // scale the AMD tree cuts into upper tasks only).
  const Analysis analysis = analyzed_problem(ProblemId::kXenon2, 0.2,
                                             OrderingKind::kNestedDissection);
  const Subtrees subtrees = find_subtrees(analysis.tree, analysis.memory, 4);
  std::vector<std::vector<index_t>> subtree_nodes;
  std::vector<index_t> upper_nodes;
  split_subtree_nodes(subtrees, analysis.traversal, subtree_nodes,
                      upper_nodes);
  // Every node lands in exactly one bucket, in traversal order.
  std::size_t total = upper_nodes.size();
  for (const auto& nodes : subtree_nodes) total += nodes.size();
  EXPECT_EQ(total, analysis.traversal.size());
  ASSERT_FALSE(subtree_nodes.empty());
  ASSERT_FALSE(upper_nodes.empty());
  // No single task's window — a subtree task's exact stack peak, an
  // upper front's nfront^2 — exceeds the serial peak it is part of.
  const count_t serial_peak =
      predict_arena_peak(analysis.tree, analysis.traversal);
  for (std::size_t s = 0; s < subtree_nodes.size(); ++s) {
    const count_t peak = predict_subtree_arena_peak(
        analysis.tree, subtree_nodes[s], subtrees.roots[s]);
    EXPECT_GT(peak, 0);
    EXPECT_LE(peak, serial_peak);
  }
  for (index_t i : upper_nodes)
    EXPECT_LE(square(analysis.tree.nfront(i)), serial_peak);
}

}  // namespace
}  // namespace memfront
