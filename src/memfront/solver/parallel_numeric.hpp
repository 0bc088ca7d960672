// Task-parallel numeric multifrontal factorization over the assembly
// tree. The Geist-Ng subtree-to-processor mapping (symbolic/subtrees)
// cuts the bottom of the tree into whole-subtree tasks — each runs on
// one worker in postorder, pure type-1 parallelism — and the upper part
// runs as dependency-counted node tasks that become ready when their
// children finish. Every CB lives in one shared OocCoordinator ledger
// (in core is its unlimited budget), which also measures the peak.
//
// Execution order is *dynamic*: the NumericScheduler (solver/scheduler)
// keeps per-worker task deques with chunked work stealing, and consults
// a SchedulerPolicy — the same strategy objects the scheduling
// simulator runs — for every dispatch and admission, fed live
// per-worker memory and load through a RealPolicyHost. Determinism mode
// (sched.steal = false) reproduces the static LPT schedule exactly.
//
// This is the only factorization driver: numeric_factorize() is its
// one-worker run, mapped so that every tree root is one whole-subtree
// task. The result is bit-identical under any schedule: every node is
// assembled and eliminated by exactly one task, the child extend-add
// order is the tree's child order, and the kernels are shared — so the
// parallel factorization equals numeric_factorize() output bit for bit
// at any worker count, stealing on or off.
#pragma once

#include "memfront/solver/numeric_factor.hpp"
#include "memfront/solver/scheduler.hpp"
#include "memfront/symbolic/subtrees.hpp"

namespace memfront {

struct ParallelNumericOptions {
  /// Worker threads (0 = default_thread_count(), which honors the
  /// MEMFRONT_THREADS environment variable).
  unsigned nthreads = 0;
  /// Width of the Geist-Ng subtree mapping; 0 = the worker count. Values
  /// above the worker count fold onto workers round-robin.
  index_t nprocs = 0;
  SubtreeOptions subtree_options{};
  FrontalKernel kernel = FrontalKernel::kBlocked;
  /// Scheduling: which SchedulerPolicy drives dispatch/admission and
  /// whether workers steal (sched.steal = false is determinism mode).
  RealSchedOptions sched{};
  /// Real out-of-core execution: the OocCoordinator gates every worker
  /// under a single global budget (ooc.budget_doubles); CBs spill to
  /// per-worker files and factor panels stream to disk. The result
  /// stays bit-identical to the in-core run.
  OocExecConfig ooc{};
};

struct ParallelNumericStats {
  unsigned workers = 0;
  index_t num_subtrees = 0;
  index_t num_upper_nodes = 0;
  /// High-water mark of the shared ledger (doubles of full-square
  /// storage): stacked CBs plus live fronts of all workers at one
  /// instant, plus in-flight writes out of core — the same value as
  /// FactorStats::arena_peak_doubles. It depends on the schedule.
  count_t total_arena_peak_doubles = 0;
  /// Scheduler outcome: the policy that drove dispatch, whether
  /// stealing was on, and the counters (steals, wakeups, consults...).
  const char* policy = "workload";
  bool steal = false;
  SchedStats sched{};
};

/// Requires analysis.structure and values on analysis.permuted (same
/// contract as numeric_factorize). `stats` is optional.
Factorization parallel_numeric_factorize(
    const Analysis& analysis, const ParallelNumericOptions& options = {},
    ParallelNumericStats* stats = nullptr);

}  // namespace memfront
