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
/// node's CB (cb_heap) and factor slots are written by exactly one task
/// and only read by its parent's task, which is ordered after it through
/// the scheduler mutex (the completion's dependency decrement
/// happens-before the parent's dispatch). The mutex here only guards the
/// statistics accumulators and the error slot.
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

  // Statistics and the first error (guarded by mu).
  std::mutex mu;
  std::exception_ptr error;
  count_t factor_entries = 0;
  index_t perturbations = 0;
  index_t exact_zero_pivots = 0;
  double max_pivot_abs = 0.0;
  count_t max_arena_peak = 0;
  count_t total_arena_peak = 0;

  /// Heap CB slots: subtree roots and upper nodes (arena slots never
  /// cross a task boundary).
  std::vector<std::vector<double>> cb_heap;
  /// Arena CB slots, only ever touched by the owning subtree's task.
  std::vector<double*> cb_arena;
  /// Out-of-core mode: the shared budget gate (null = in-core). When
  /// set, every CB lives in the coordinator instead of cb_heap/cb_arena
  /// and the arenas stay empty.
  OocCoordinator* ooc = nullptr;

  const AssemblyTree& tree() const { return analysis->tree; }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = e;
    }
    // Admission waiters wait for memory a dead worker can no longer
    // free: cancel the coordinator first, so a memory waiter the
    // scheduler's failure wakes finds the admission cancelled.
    if (ooc) ooc->cancel();
    sched->fail();
  }
};

/// Runs one whole subtree on the calling worker with its private arena.
/// Statistics accumulate locally and flush under one lock at the end.
void run_subtree(Runtime& rt, index_t s, unsigned w, FrontWorkspace& ws,
                 FrontalArena& arena, count_t& arena_peak,
                 std::vector<const double*>& child_cbs) {
  const AssemblyTree& tree = rt.tree();
  const index_t root = rt.subtrees.roots[static_cast<std::size_t>(s)];
  MEMFRONT_SPAN("subtree", root);
  numeric_detail::FrontResult acc;
  count_t factor_entries = 0;
  for (index_t i : rt.subtree_nodes[static_cast<std::size_t>(s)]) {
    const index_t nfront = tree.nfront(i);
    const index_t npiv = tree.npiv(i);
    const index_t ncb = nfront - npiv;
    const std::size_t front_doubles =
        static_cast<std::size_t>(nfront) * static_cast<std::size_t>(nfront);
    const auto children = tree.children(i);

    if (rt.ooc) rt.ooc->begin_node(i, static_cast<index_t>(w));
    FrontView front = ws.acquire_front(nfront);
    if (!rt.ooc)
      arena_peak = std::max(
          arena_peak, static_cast<count_t>(arena.in_use() + front_doubles));

    // Fault site: a worker task dying mid-subtree (any exception class)
    // must drain the pool and surface exactly one structured error. The
    // subtree root is the stable id, so the firing schedule is a pure
    // function of the seed regardless of worker interleaving.
    if (MEMFRONT_FAULT("worker.subtree_exception", root))
      throw std::runtime_error("injected worker failure in subtree task");

    numeric_detail::FrontResult fr;
    if (rt.ooc) {
      // Budgeted assembly streams the children one at a time through
      // the coordinator (a spilled child scatters panel by panel).
      const numeric_detail::ChildStream stream{
          [&](std::size_t c, FrontView f, std::span<const index_t> positions) {
            rt.ooc->assemble_child(
                children[c], static_cast<index_t>(w),
                c + 1 < children.size() ? children[c + 1] : kNone, f,
                positions);
          }};
      fr = numeric_detail::process_front(
          rt.ctx, i, stream, ws, front,
          rt.fact->nodes[static_cast<std::size_t>(i)], rt.fact->row_of);
    } else {
      child_cbs.clear();
      for (index_t child : children)
        child_cbs.push_back(rt.cb_arena[static_cast<std::size_t>(child)]);
      fr = numeric_detail::process_front(
          rt.ctx, i, child_cbs, ws, front,
          rt.fact->nodes[static_cast<std::size_t>(i)], rt.fact->row_of);
    }
    acc.perturbations += fr.perturbations;
    acc.exact_zero_pivots += fr.exact_zero_pivots;
    acc.max_pivot_abs = std::max(acc.max_pivot_abs, fr.max_pivot_abs);
    factor_entries += tree.factor_entries(i);

    if (rt.ooc) {
      if (ncb > 0) rt.ooc->store_cb(i, static_cast<index_t>(w), front, npiv);
      rt.ooc->end_node(i, rt.fact->nodes[static_cast<std::size_t>(i)],
                       static_cast<index_t>(w));
      continue;
    }
    for (std::size_t c = children.size(); c-- > 0;) {
      const index_t child = children[c];
      arena.pop(rt.cb_arena[static_cast<std::size_t>(child)],
                static_cast<std::size_t>(square(tree.ncb(child))));
      rt.cb_arena[static_cast<std::size_t>(child)] = nullptr;
    }
    if (ncb > 0) {
      if (i == root) {
        // The root's CB outlives this task: publish it on the heap for
        // the upper-part parent.
        auto& slot = rt.cb_heap[static_cast<std::size_t>(i)];
        slot.resize(static_cast<std::size_t>(square(ncb)));
        numeric_detail::extract_cb(front, npiv, slot.data());
      } else {
        double* slot = arena.push(static_cast<std::size_t>(square(ncb)));
        numeric_detail::extract_cb(front, npiv, slot);
        rt.cb_arena[static_cast<std::size_t>(i)] = slot;
      }
    }
    arena_peak = std::max(
        arena_peak, static_cast<count_t>(arena.in_use() + front_doubles));
  }
  check(arena.in_use() == 0, "parallel_numeric: subtree left CBs stacked");
  std::lock_guard<std::mutex> lock(rt.mu);
  rt.perturbations += acc.perturbations;
  rt.exact_zero_pivots += acc.exact_zero_pivots;
  rt.max_pivot_abs = std::max(rt.max_pivot_abs, acc.max_pivot_abs);
  rt.factor_entries += factor_entries;
}

/// Runs one upper-part node task (children are subtree roots or other
/// upper nodes; all CBs live on the heap).
void run_upper(Runtime& rt, index_t i, unsigned w, FrontWorkspace& ws,
               std::vector<const double*>& child_cbs) {
  MEMFRONT_SPAN("upper_front", i);
  const AssemblyTree& tree = rt.tree();
  const index_t npiv = tree.npiv(i);
  const index_t ncb = tree.ncb(i);
  const auto children = tree.children(i);

  if (rt.ooc) rt.ooc->begin_node(i, static_cast<index_t>(w));
  FrontView front = ws.acquire_front(tree.nfront(i));

  numeric_detail::FrontResult fr;
  if (rt.ooc) {
    const numeric_detail::ChildStream stream{
        [&](std::size_t c, FrontView f, std::span<const index_t> positions) {
          rt.ooc->assemble_child(
              children[c], static_cast<index_t>(w),
              c + 1 < children.size() ? children[c + 1] : kNone, f, positions);
        }};
    fr = numeric_detail::process_front(
        rt.ctx, i, stream, ws, front,
        rt.fact->nodes[static_cast<std::size_t>(i)], rt.fact->row_of);
  } else {
    child_cbs.clear();
    for (index_t child : children)
      child_cbs.push_back(rt.cb_heap[static_cast<std::size_t>(child)].data());
    fr = numeric_detail::process_front(
        rt.ctx, i, child_cbs, ws, front,
        rt.fact->nodes[static_cast<std::size_t>(i)], rt.fact->row_of);
  }

  if (rt.ooc) {
    if (ncb > 0) rt.ooc->store_cb(i, static_cast<index_t>(w), front, npiv);
    rt.ooc->end_node(i, rt.fact->nodes[static_cast<std::size_t>(i)],
                     static_cast<index_t>(w));
  } else {
    for (index_t child : children) {
      auto& slot = rt.cb_heap[static_cast<std::size_t>(child)];
      std::vector<double>().swap(slot);  // actually release the storage
    }
    if (ncb > 0) {
      auto& slot = rt.cb_heap[static_cast<std::size_t>(i)];
      slot.resize(static_cast<std::size_t>(square(ncb)));
      numeric_detail::extract_cb(front, npiv, slot.data());
    }
  }

  std::lock_guard<std::mutex> lock(rt.mu);
  rt.perturbations += fr.perturbations;
  rt.exact_zero_pivots += fr.exact_zero_pivots;
  rt.max_pivot_abs = std::max(rt.max_pivot_abs, fr.max_pivot_abs);
  rt.factor_entries += tree.factor_entries(i);
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
    FrontalArena arena;
    count_t arena_peak = 0;
    std::vector<const double*> child_cbs;

    NumericScheduler::Task task;
    while (rt.sched->next_task(w, task)) {
      if (task.kind == NumericScheduler::Task::Kind::kSubtree)
        run_subtree(rt, task.id, w, ws, arena, arena_peak, child_cbs);
      else
        run_upper(rt, task.id, w, ws, child_cbs);
      rt.sched->complete(w, task);
    }

    std::lock_guard<std::mutex> stats_lock(rt.mu);
    rt.max_arena_peak = std::max(rt.max_arena_peak, arena_peak);
    rt.total_arena_peak += arena_peak;
  } catch (...) {
    rt.fail(std::current_exception());
  }
}

}  // namespace

Factorization parallel_numeric_factorize(const Analysis& analysis,
                                         const ParallelNumericOptions& options,
                                         ParallelNumericStats* stats) {
  check(analysis.structure.has_value(),
        "parallel_numeric_factorize: analysis ran without structure");
  check(analysis.permuted.has_value() && analysis.permuted->has_values(),
        "parallel_numeric_factorize: matrix has no values");
  require(!analysis.permuted->has_nonfinite_values(),
          "parallel_numeric_factorize: matrix contains NaN/Inf values");
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

  rt.cb_heap.resize(static_cast<std::size_t>(nn));
  rt.cb_arena.assign(static_cast<std::size_t>(nn), nullptr);

  // Whole-subtree tasks start on the worker their LPT processor folds
  // onto, biggest subtree first.
  NumericScheduler sched(
      tree, rt.subtrees, rt.subtree_nodes, rt.upper_nodes,
      fold_subtrees(rt.subtrees, workers), workers, options.sched,
      options.ooc.enabled ? options.ooc.budget_doubles : 0);
  rt.sched = &sched;

  // The coordinator is created after (and destroyed before) the
  // scheduler: its sched hooks call back into it.
  std::unique_ptr<OocCoordinator> ooc;
  if (options.ooc.enabled) {
    ooc = std::make_unique<OocCoordinator>(options.ooc, tree,
                                           static_cast<index_t>(workers));
    ooc->set_sched_hooks(
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
    rt.ooc = ooc.get();
  }

  const auto wall_t0 = std::chrono::steady_clock::now();
  if (num_subtrees > 0 || !rt.upper_nodes.empty())
    parallel_for(
        workers, [&](std::size_t w) { worker_loop(rt, static_cast<unsigned>(w)); },
        workers);
  // Workers drained; surface the first failure with the taxonomy
  // guaranteed (non-taxonomy exceptions wrap as kWorkerFailure).
  if (rt.error) rethrow_structured(rt.error, "parallel_numeric_factorize");
  check(sched.stats().completions ==
            static_cast<std::uint64_t>(num_subtrees) + rt.upper_nodes.size(),
        "parallel_numeric_factorize: tasks left behind");
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0)
          .count();

  fact.stats.perturbations = rt.perturbations;
  fact.stats.exact_zero_pivots = rt.exact_zero_pivots;
  fact.stats.pivot_growth_max = amax > 0.0 ? rt.max_pivot_abs / amax : 0.0;
  fact.stats.factor_entries = rt.factor_entries;
  fact.stats.arena_peak_doubles = rt.max_arena_peak;
  if (ooc) {
    fact.stats.ooc = ooc->finish();
    if (options.ooc.spill_factors) fact.ooc_factors = ooc->factor_state();
    fact.stats.arena_peak_doubles = fact.stats.ooc.charged_peak_doubles;
    rt.max_arena_peak = fact.stats.ooc.charged_peak_doubles;
  }
  ParallelNumericStats local_stats;
  ParallelNumericStats& out = stats ? *stats : local_stats;
  out.workers = workers;
  out.num_subtrees = num_subtrees;
  out.num_upper_nodes = static_cast<index_t>(rt.upper_nodes.size());
  out.max_arena_peak_doubles = rt.max_arena_peak;
  out.total_arena_peak_doubles = rt.total_arena_peak;
  out.steal_arena_bound_doubles = sched.steal_arena_bound_doubles();
  out.policy = sched.policy_name();
  out.steal = options.sched.steal;
  out.sched = sched.stats();
  obs::record_parallel_numeric_stats(out, wall_seconds);
  return fact;
}

}  // namespace memfront
