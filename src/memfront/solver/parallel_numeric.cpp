#include "memfront/solver/parallel_numeric.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <string>

#include "memfront/frontal/arena.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/ooc/coordinator.hpp"
#include "memfront/solver/front_task.hpp"
#include "memfront/solver/scheduler.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/parallel_for.hpp"
#include "memfront/support/status.hpp"

namespace memfront {
namespace {

using numeric_detail::FrontContext;
using numeric_detail::FrontWorkspace;

/// Everything the worker tasks share. Synchronization discipline: a
/// node's CB lives in the coordinator and its factor slots are written
/// by exactly one task and only read by its parent's task, which is
/// ordered after it through the scheduler mutex (the completion's
/// dependency decrement happens-before the parent's dispatch). The
/// mutex here only guards the statistics accumulators and the error
/// slot.
struct Runtime {
  const Analysis* analysis = nullptr;
  FrontContext ctx;
  Factorization* fact = nullptr;

  // Static task structure (read-only while workers run).
  Subtrees subtrees;
  std::vector<std::vector<index_t>> subtree_nodes;  // postorder per subtree
  std::vector<index_t> upper_nodes;

  /// The dynamic task source: dispatch, stealing, admission, wakeups.
  NumericScheduler* sched = nullptr;
  /// The shared ledger every CB lives in (unlimited in core).
  OocCoordinator* coord = nullptr;

  // Statistics and the first error (guarded by mu).
  std::mutex mu;
  std::exception_ptr error;
  count_t factor_entries = 0;
  index_t perturbations = 0;
  index_t exact_zero_pivots = 0;
  double max_pivot_abs = 0.0;

  const AssemblyTree& tree() const { return analysis->tree; }

  /// Factors node i on worker w; folds the pivot report into `acc` and
  /// the node's factor entries into `entries`.
  void factor(index_t i, unsigned w, FrontWorkspace& ws,
              numeric_detail::FrontResult& acc, count_t& entries) {
    const numeric_detail::FrontResult fr = numeric_detail::factor_node(
        ctx, i, static_cast<index_t>(w), *coord, ws,
        fact->nodes[static_cast<std::size_t>(i)], fact->row_of);
    acc.perturbations += fr.perturbations;
    acc.exact_zero_pivots += fr.exact_zero_pivots;
    acc.max_pivot_abs = std::max(acc.max_pivot_abs, fr.max_pivot_abs);
    entries += tree().factor_entries(i);
  }

  /// Flushes one task's statistics under one lock.
  void flush(const numeric_detail::FrontResult& acc, count_t entries) {
    std::lock_guard<std::mutex> lock(mu);
    perturbations += acc.perturbations;
    exact_zero_pivots += acc.exact_zero_pivots;
    max_pivot_abs = std::max(max_pivot_abs, acc.max_pivot_abs);
    factor_entries += entries;
  }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = e;
    }
    // Admission waiters wait for memory a dead worker can no longer
    // free: cancel the coordinator first, so a memory waiter the
    // scheduler's failure wakes finds the admission cancelled.
    coord->cancel();
    sched->fail();
  }
};

/// Runs one whole subtree on the calling worker, in postorder.
void run_subtree(Runtime& rt, index_t s, unsigned w, FrontWorkspace& ws) {
  const index_t root = rt.subtrees.roots[static_cast<std::size_t>(s)];
  MEMFRONT_SPAN("subtree", root);
  // Fault site: a worker task dying mid-subtree (any exception class)
  // must drain the pool and surface exactly one structured error. The
  // subtree root is the stable id, so the firing schedule is a pure
  // function of the seed regardless of worker interleaving.
  if (MEMFRONT_FAULT("worker.subtree_exception", root))
    throw std::runtime_error("injected worker failure in subtree task");
  numeric_detail::FrontResult acc;
  count_t entries = 0;
  for (index_t i : rt.subtree_nodes[static_cast<std::size_t>(s)])
    rt.factor(i, w, ws, acc, entries);
  rt.flush(acc, entries);
}

/// Runs one upper-part node task (its children are subtree roots or
/// other upper nodes).
void run_upper(Runtime& rt, index_t i, unsigned w, FrontWorkspace& ws) {
  MEMFRONT_SPAN("upper_front", i);
  numeric_detail::FrontResult acc;
  count_t entries = 0;
  rt.factor(i, w, ws, acc, entries);
  rt.flush(acc, entries);
}

void worker_loop(Runtime& rt, unsigned w) {
  try {
    MEMFRONT_THREAD_NAME("worker-" + std::to_string(w));
    FrontWorkspace ws;
    ws.init(rt.tree().num_cols());
    // Idle workers join this worker's large trailing updates (in core and
    // under a budget alike): helpers write into this front, charge no
    // memory and make no dispatch.
    ws.team = rt.sched;

    NumericScheduler::Task task;
    while (rt.sched->next_task(w, task)) {
      if (task.kind == NumericScheduler::Task::Kind::kSubtree)
        run_subtree(rt, task.id, w, ws);
      else
        run_upper(rt, task.id, w, ws);
      rt.sched->complete(w, task);
    }
  } catch (...) {
    rt.fail(std::current_exception());
  }
}

/// The tree-task driver behind both entry points: maps the tree onto
/// options.nprocs with options.subtree_options, runs the tasks on
/// options.nthreads workers over one ledger, and records the scheduler's
/// counters (solver.sched.*). `out` receives the scheduler's outcome,
/// `wall_seconds` the workers' wall clock.
Factorization factorize_tree(const Analysis& analysis,
                             const ParallelNumericOptions& options,
                             ParallelNumericStats& out, double& wall_seconds) {
  check(analysis.structure.has_value(),
        "numeric factorization: analysis ran without structure");
  check(analysis.permuted.has_value() && analysis.permuted->has_values(),
        "numeric factorization: matrix has no values");
  require(!analysis.permuted->has_nonfinite_values(),
          "numeric factorization: matrix contains NaN/Inf values");
  // Denominator of the pivot-growth report; one O(nnz) scan.
  const double amax = analysis.permuted->max_abs_value();
  const AssemblyTree& tree = analysis.tree;
  const bool sym = tree.symmetric();
  const index_t n = tree.num_cols();
  const index_t nn = tree.num_nodes();

  const unsigned workers =
      options.nthreads > 0 ? options.nthreads : default_thread_count();
  const index_t nprocs =
      options.nprocs > 0 ? options.nprocs : static_cast<index_t>(workers);

  Factorization fact;
  fact.symmetric = sym;
  fact.nodes.resize(static_cast<std::size_t>(nn));
  fact.row_of.resize(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k)
    fact.row_of[static_cast<std::size_t>(k)] = k;

  // Transposed matrix for unsymmetric row assembly.
  std::optional<CscMatrix> at;
  if (!sym) at = analysis.permuted->transpose();

  Runtime rt;
  rt.analysis = &analysis;
  rt.fact = &fact;
  rt.ctx.tree = &tree;
  rt.ctx.structure = &*analysis.structure;
  rt.ctx.a = &*analysis.permuted;
  rt.ctx.at = at ? &*at : nullptr;
  rt.ctx.symmetric = sym;
  rt.ctx.kernel = options.kernel;

  // The paper's static decomposition: Geist-Ng subtrees, LPT-mapped onto
  // `nprocs` processors, everything above as individual node tasks. The
  // mapping seeds the deques; from there the scheduler's policy decides.
  rt.subtrees =
      find_subtrees(tree, analysis.memory, nprocs, options.subtree_options);
  const index_t num_subtrees =
      static_cast<index_t>(rt.subtrees.roots.size());
  split_subtree_nodes(rt.subtrees, analysis.traversal, rt.subtree_nodes,
                      rt.upper_nodes);

  // Whole-subtree tasks start on the worker their LPT processor folds
  // onto, biggest subtree first.
  NumericScheduler sched(
      tree, rt.subtrees, rt.subtree_nodes, rt.upper_nodes,
      fold_subtrees(rt.subtrees, workers), workers, options.sched,
      options.ooc.enabled ? options.ooc.budget_doubles : 0);
  rt.sched = &sched;

  // The coordinator is created after (and destroyed before) the
  // scheduler: its sched hooks call back into it. In core it has no
  // hooks, so the scheduler sees no reservation.
  OocCoordinator coord(options.ooc, tree, static_cast<index_t>(workers));
  rt.coord = &coord;
  if (options.ooc.enabled) {
    coord.set_sched_hooks(
        {/*admit=*/[&sched](index_t w, index_t node, count_t window) {
           return sched.consult_admission(w, node, window);
         },
         /*charged=*/[&sched](index_t w, count_t delta) {
           sched.add_ooc_charge(w, delta);
         },
         /*wait=*/[&sched](index_t w, std::uint64_t seen) {
           return sched.wait_for_memory(static_cast<unsigned>(w), seen);
         },
         /*released=*/[&sched](std::uint64_t epoch) {
           sched.memory_released(epoch);
         }});
  }

  const auto wall_t0 = std::chrono::steady_clock::now();
  if (num_subtrees > 0 || !rt.upper_nodes.empty())
    parallel_for(
        workers, [&](std::size_t w) { worker_loop(rt, static_cast<unsigned>(w)); },
        workers);
  // Workers drained; surface the first failure with the taxonomy
  // guaranteed (non-taxonomy exceptions wrap as kWorkerFailure).
  if (rt.error) rethrow_structured(rt.error, "numeric factorization");
  check(sched.stats().completions ==
            static_cast<std::uint64_t>(num_subtrees) + rt.upper_nodes.size(),
        "numeric factorization: tasks left behind");
  wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0)
          .count();

  fact.stats.perturbations = rt.perturbations;
  fact.stats.exact_zero_pivots = rt.exact_zero_pivots;
  fact.stats.pivot_growth_max = amax > 0.0 ? rt.max_pivot_abs / amax : 0.0;
  fact.stats.factor_entries = rt.factor_entries;
  const OocExecStats ooc = coord.finish();
  fact.stats.arena_peak_doubles = ooc.charged_peak_doubles;
  if (options.ooc.enabled) fact.stats.ooc = ooc;
  fact.ooc_factors = coord.factor_state();
  out.workers = workers;
  out.num_subtrees = num_subtrees;
  out.num_upper_nodes = static_cast<index_t>(rt.upper_nodes.size());
  out.total_arena_peak_doubles = ooc.charged_peak_doubles;
  out.policy = sched.policy_name();
  out.steal = options.sched.steal;
  out.sched = sched.stats();
  obs::record_sched_stats(out);
  return fact;
}

}  // namespace

Factorization numeric_factorize(const Analysis& analysis,
                                const NumericOptions& options) {
  MEMFRONT_SPAN("numeric_factorize");
  // The sequential postorder is the one-worker schedule: on one
  // processor at balance 1 the Geist-Ng cut never splits a tree root,
  // and without the memory refinement every root becomes one
  // whole-subtree task that runs its nodes in traversal order. The lone
  // worker takes the roots largest first, but a root leaves no CB
  // behind, so the ledger peak is still the traversal's.
  ParallelNumericOptions one;
  one.nthreads = 1;
  one.nprocs = 1;
  one.subtree_options = {.balance_factor = 1.0, .memory_balance_factor = 0.0};
  one.kernel = options.kernel;
  one.ooc = options.ooc;
  ParallelNumericStats stats;
  double wall_seconds = 0;
  Factorization fact = factorize_tree(analysis, one, stats, wall_seconds);
  if (!options.ooc.enabled)
    check(fact.stats.arena_peak_doubles ==
              predict_arena_peak(analysis.tree, analysis.traversal),
          "numeric_factorize: ledger peak diverged from the predicted peak");
  obs::record_factor_stats(fact.stats);
  return fact;
}

Factorization parallel_numeric_factorize(const Analysis& analysis,
                                         const ParallelNumericOptions& options,
                                         ParallelNumericStats* stats) {
  ParallelNumericStats local_stats;
  ParallelNumericStats& out = stats ? *stats : local_stats;
  double wall_seconds = 0;
  Factorization fact = factorize_tree(analysis, options, out, wall_seconds);
  obs::record_parallel_numeric_stats(out, wall_seconds);
  return fact;
}

}  // namespace memfront
