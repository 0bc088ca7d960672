#include "memfront/solver/solve.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include <cmath>
#include <limits>

#include "memfront/frontal/kernels.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/solver/scheduler.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/parallel_for.hpp"
#include "memfront/support/status.hpp"

namespace memfront {
namespace {

inline std::size_t sz(index_t i) { return static_cast<std::size_t>(i); }
inline std::size_t off(index_t a, index_t b) {
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(b);
}

/// Everything the per-node sweep steps read. `y` is the n x k panel in
/// elimination order; `cb` the CB-RHS slab (node i's ncb x k block
/// starts at row graph->cb_offset[i]).
struct SolveContext {
  const Analysis* analysis = nullptr;
  const Factorization* fact = nullptr;
  const SolveGraph* graph = nullptr;
  double* y = nullptr;
  double* cb = nullptr;
  index_t n = 0;
  index_t k = 0;
  bool scalar = false;  // solve_reference: scalar loops instead of kernels
};

inline double* cb_block(const SolveContext& ctx, index_t node) {
  return ctx.cb + static_cast<std::size_t>(
                      ctx.graph->cb_offset[sz(node)]) *
                      static_cast<std::size_t>(ctx.k);
}

/// Forward elimination of one front: gather, extend-add the children's
/// CB-RHS blocks (tree child order), unit-lower TRSM + Schur update,
/// scatter. The only shared writes are this node's own pivot rows of y
/// and its own slab slice, so tasks for different nodes never conflict.
void forward_node(const SolveContext& ctx, index_t i,
                  SolveWorkspace::Scratch& s) {
  const AssemblyTree& tree = ctx.analysis->tree;
  const FrontalStructure& structure = *ctx.analysis->structure;
  const index_t nfront = tree.nfront(i);
  const index_t npiv = tree.npiv(i);
  const index_t ncb = nfront - npiv;
  const index_t fc = tree.first_col(i);
  const index_t k = ctx.k;
  const auto rows = structure.rows(i);
  const NodeFactor& nf = ctx.fact->nodes[sz(i)];
  double* F = s.front.data();

  // Gather: the pivot rows are columns [fc, fc+npiv) — a contiguous
  // slice of every y column; the CB rows start from zero.
  for (index_t c = 0; c < k; ++c) {
    double* fcol = F + off(c, nfront);
    std::memcpy(fcol, ctx.y + off(c, ctx.n) + fc,
                sz(npiv) * sizeof(double));
    std::fill(fcol + npiv, fcol + nfront, 0.0);
  }

  // Extend-add the children's CB-RHS blocks in tree child order. Both
  // row lists are sorted and the child's CB set is a subset of this
  // front's rows, so one merge walk yields the local positions.
  for (index_t child : tree.children(i)) {
    const index_t ccb = tree.ncb(child);
    if (ccb == 0) continue;
    const auto crows = structure.rows(child).subspan(sz(tree.npiv(child)));
    index_t* pos = s.pos.data();
    index_t p = 0;
    for (index_t t = 0; t < ccb; ++t) {
      while (p < nfront && rows[sz(p)] < crows[sz(t)]) ++p;
      check(p < nfront && rows[sz(p)] == crows[sz(t)],
            "solve: child CB row missing from parent front");
      pos[t] = p;
    }
    const double* block = cb_block(ctx, child);
    for (index_t c = 0; c < k; ++c) {
      double* fcol = F + off(c, nfront);
      const double* bcol = block + off(c, ccb);
      for (index_t t = 0; t < ccb; ++t) fcol[pos[t]] += bcol[t];
    }
  }

  // Eliminate. The scalar loop and the kernel pair apply the same
  // per-element update chains (products in increasing pivot order, the
  // multiplier read after its own row finished) — bit-identical.
  const double* panel = nf.panel.data();
  if (ctx.scalar) {
    for (index_t c = 0; c < k; ++c) {
      double* fcol = F + off(c, nfront);
      for (index_t j = 0; j < npiv; ++j) {
        const double xj = fcol[j];
        const double* col = panel + off(j, nfront);
        for (index_t r = j + 1; r < nfront; ++r) fcol[r] -= col[r] * xj;
      }
    }
  } else if (npiv > 0) {
    rhs_trsm_lower_unit(npiv, k, panel, nfront, F, nfront);
    if (ncb > 0)
      schur_update(ncb, k, npiv, panel + npiv, nfront, F, nfront, F + npiv,
                   nfront);
  }

  // Scatter: solved pivots back to y, CB rows into this node's slab
  // slice for the parent's extend-add.
  for (index_t c = 0; c < k; ++c)
    std::memcpy(ctx.y + off(c, ctx.n) + fc, F + off(c, nfront),
                sz(npiv) * sizeof(double));
  if (ncb > 0) {
    double* block = cb_block(ctx, i);
    for (index_t c = 0; c < k; ++c)
      std::memcpy(block + off(c, ncb), F + off(c, nfront) + npiv,
                  sz(ncb) * sizeof(double));
  }
}

/// Back-substitution of one front: gather the forward-solved pivot
/// values and the already-solved ancestor values its CB rows reference,
/// subtract their products, solve the pivot block, scatter. Writes only
/// this node's pivot rows of y.
void backward_node(const SolveContext& ctx, index_t i,
                   SolveWorkspace::Scratch& s) {
  const AssemblyTree& tree = ctx.analysis->tree;
  const FrontalStructure& structure = *ctx.analysis->structure;
  const index_t nfront = tree.nfront(i);
  const index_t npiv = tree.npiv(i);
  const index_t ncb = nfront - npiv;
  const index_t fc = tree.first_col(i);
  const index_t k = ctx.k;
  if (npiv == 0) return;
  const auto rows = structure.rows(i);
  const NodeFactor& nf = ctx.fact->nodes[sz(i)];
  double* F = s.front.data();   // npiv x k
  double* G = s.gather.data();  // ncb x k

  for (index_t c = 0; c < k; ++c)
    std::memcpy(F + off(c, npiv), ctx.y + off(c, ctx.n) + fc,
                sz(npiv) * sizeof(double));
  for (index_t c = 0; c < k; ++c) {
    double* gcol = G + off(c, ncb);
    const double* ycol = ctx.y + off(c, ctx.n);
    for (index_t t = 0; t < ncb; ++t) gcol[t] = ycol[rows[sz(npiv + t)]];
  }

  const double* panel = nf.panel.data();
  if (ctx.fact->symmetric) {
    // LDLt: scale by D, subtract the L21-transposed products of the
    // ancestor values, then the unit-lower transposed backward solve.
    for (index_t c = 0; c < k; ++c) {
      double* fcol = F + off(c, npiv);
      for (index_t j = 0; j < npiv; ++j)
        fcol[j] /= panel[off(j, nfront) + sz(j)];
    }
    if (ctx.scalar) {
      for (index_t c = 0; c < k; ++c) {
        double* fcol = F + off(c, npiv);
        const double* gcol = G + off(c, ncb);
        for (index_t j = 0; j < npiv; ++j) {
          const double* col = panel + off(j, nfront);
          double sum = fcol[j];
          for (index_t t = 0; t < ncb; ++t) sum -= col[npiv + t] * gcol[t];
          fcol[j] = sum;
        }
        for (index_t j = npiv - 1; j >= 0; --j) {
          const double* col = panel + off(j, nfront);
          double sum = fcol[j];
          for (index_t t = j + 1; t < npiv; ++t) sum -= col[t] * fcol[t];
          fcol[j] = sum;
        }
      }
    } else {
      if (ncb > 0)
        rhs_gemm_at_sub(npiv, k, ncb, panel + npiv, nfront, G, ncb, F, npiv);
      rhs_trsm_lower_trans_unit(npiv, k, panel, nfront, F, npiv);
    }
  } else {
    // LU: subtract the U12 products of the ancestor values, then the
    // non-unit upper backward solve on U11.
    if (ctx.scalar) {
      const double* u12 = nf.u12.data();
      for (index_t c = 0; c < k; ++c) {
        double* fcol = F + off(c, npiv);
        const double* gcol = G + off(c, ncb);
        for (index_t j = 0; j < npiv; ++j) {
          double sum = fcol[j];
          for (index_t t = 0; t < ncb; ++t)
            sum -= u12[off(t, npiv) + sz(j)] * gcol[t];
          fcol[j] = sum;
        }
        for (index_t j = npiv - 1; j >= 0; --j) {
          double sum = fcol[j];
          for (index_t t = j + 1; t < npiv; ++t)
            sum -= panel[off(t, nfront) + sz(j)] * fcol[t];
          fcol[j] = sum / panel[off(j, nfront) + sz(j)];
        }
      }
    } else {
      if (ncb > 0)
        schur_update(npiv, k, ncb, nf.u12.data(), npiv, G, ncb, F, npiv);
      rhs_trsm_upper(npiv, k, panel, nfront, F, npiv);
    }
  }

  for (index_t c = 0; c < k; ++c)
    std::memcpy(ctx.y + off(c, ctx.n) + fc, F + off(c, npiv),
                sz(npiv) * sizeof(double));
}

void run_serial(const SolveContext& ctx, SolveWorkspace::Scratch& s) {
  {
    MEMFRONT_SPAN("solve_forward");
    for (index_t i : ctx.analysis->traversal) forward_node(ctx, i, s);
  }
  {
    MEMFRONT_SPAN("solve_backward");
    const std::vector<index_t>& t = ctx.analysis->traversal;
    for (auto it = t.rbegin(); it != t.rend(); ++it)
      backward_node(ctx, *it, s);
  }
}

/// One task of a parallel sweep, rooted at `root`: that upper node, or
/// a whole subtree walked in postorder (forward) or reversed (backward).
void run_sweep_task(const SolveContext& ctx, const NumericScheduler::Task& task,
                    index_t root, bool forward, SolveWorkspace::Scratch& s) {
  if (task.kind == NumericScheduler::Task::Kind::kUpper) {
    MEMFRONT_SPAN(forward ? "solve_fwd_front" : "solve_bwd_front", root);
    if (forward)
      forward_node(ctx, root, s);
    else
      backward_node(ctx, root, s);
    return;
  }
  MEMFRONT_SPAN(forward ? "solve_fwd_subtree" : "solve_bwd_subtree", root);
  const std::vector<index_t>& nodes = ctx.graph->subtree_nodes[sz(task.id)];
  if (forward) {
    for (index_t i : nodes) forward_node(ctx, i, s);
  } else {
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it)
      backward_node(ctx, *it, s);
  }
}

/// One parallel sweep on the factorization's scheduler and task graph:
/// an upward run for the forward sweep (a node after its children), a
/// downward run for the backward sweep (a node after its parent).
void run_parallel_sweep(const SolveContext& ctx, SolveWorkspace& ws,
                        unsigned workers, bool forward) {
  MEMFRONT_SPAN(forward ? "solve_forward" : "solve_backward");
  const AssemblyTree& tree = ctx.analysis->tree;
  const SolveGraph& g = *ctx.graph;
  NumericScheduler sched(tree, g.subtrees, g.subtree_nodes, g.upper_nodes,
                         fold_subtrees(g.subtrees, workers), workers,
                         RealSchedOptions{}, /*ooc_budget_doubles=*/0,
                         forward ? NumericScheduler::Direction::kUpward
                                 : NumericScheduler::Direction::kDownward);
  const auto worker = [&](std::size_t w) {
    try {
      MEMFRONT_THREAD_NAME("solve-" + std::to_string(w));
      NumericScheduler::Task task;
      while (sched.next_task(static_cast<unsigned>(w), task)) {
        const index_t root =
            task.kind == NumericScheduler::Task::Kind::kSubtree
                ? g.subtrees.roots[sz(task.id)]
                : task.id;
        // Fault site: a solve worker dying in either sweep must drain it
        // and surface one structured kWorkerFailure. Keyed on the root
        // (shifted past every node id in the backward sweep), so the
        // schedule is interleaving-independent and per sweep.
        if (MEMFRONT_FAULT("worker.solve_exception",
                           forward ? root : tree.num_nodes() + root))
          throw std::runtime_error("injected worker failure in solve task");
        run_sweep_task(ctx, task, root, forward, ws.scratch[w]);
        sched.complete(static_cast<unsigned>(w), task);
      }
    } catch (...) {
      sched.fail();  // every other worker's next_task returns false
      throw;         // parallel_for keeps the first exception
    }
  };
  const char* where = forward ? "solve forward sweep" : "solve backward sweep";
  try {
    parallel_for(workers, worker, workers);
  } catch (...) {
    rethrow_structured(std::current_exception(), where);
  }
  check(sched.stats().completions ==
            g.subtrees.roots.size() + g.upper_nodes.size(),
        "solve: sweep left tasks behind");
}

void fill_cb_offsets(const AssemblyTree& tree, SolveGraph& g) {
  const index_t nn = tree.num_nodes();
  g.cb_offset.resize(sz(nn) + 1);
  count_t total = 0;
  for (index_t i = 0; i < nn; ++i) {
    g.cb_offset[sz(i)] = total;
    total += tree.ncb(i);
    g.max_nfront = std::max(g.max_nfront, tree.nfront(i));
    g.max_ncb = std::max(g.max_ncb, tree.ncb(i));
  }
  g.cb_offset[sz(nn)] = total;
  g.cb_rows = total;
}

unsigned resolve_workers(const SolveOptions& options) {
  return options.nthreads > 0 ? options.nthreads : default_thread_count();
}

/// Permute in, sweep, permute out — shared by every public entry point.
void run_solve(const Analysis& analysis, const Factorization& fact,
               const SolveGraph& graph, std::span<const double> b,
               index_t nrhs, std::span<double> x, SolveWorkspace& ws,
               unsigned workers, bool scalar) {
  const AssemblyTree& tree = analysis.tree;
  const index_t n = tree.num_cols();
  check(analysis.structure.has_value(), "solve: analysis ran without structure");
  check(nrhs >= 1, "solve: nrhs must be positive");
  check(b.size() == off(n, nrhs), "solve: rhs size mismatch");
  check(x.size() == b.size(), "solve: solution size mismatch");
  check(fact.nodes.size() == sz(tree.num_nodes()),
        "solve: factorization does not match analysis");

  ws.bind(graph, n, nrhs, workers);
  SolveContext ctx;
  ctx.analysis = &analysis;
  ctx.fact = &fact;
  ctx.graph = &graph;
  ctx.y = ws.y.data();
  ctx.cb = ws.cb.data();
  ctx.n = n;
  ctx.k = nrhs;
  ctx.scalar = scalar;

  // Permute the rhs into elimination order, composed with the pivoting
  // row permutation picked up during factorization.
  for (index_t c = 0; c < nrhs; ++c) {
    double* ycol = ws.y.data() + off(c, n);
    const double* bcol = b.data() + off(c, n);
    for (index_t kk = 0; kk < n; ++kk)
      ycol[kk] = bcol[analysis.perm[sz(fact.row_of[sz(kk)])]];
  }

  if (workers <= 1) {
    run_serial(ctx, ws.scratch[0]);
  } else {
    run_parallel_sweep(ctx, ws, workers, /*forward=*/true);
    run_parallel_sweep(ctx, ws, workers, /*forward=*/false);
  }

  // Back to the original ordering.
  for (index_t c = 0; c < nrhs; ++c) {
    const double* ycol = ws.y.data() + off(c, n);
    double* xcol = x.data() + off(c, n);
    for (index_t kk = 0; kk < n; ++kk) xcol[analysis.perm[sz(kk)]] = ycol[kk];
  }
}

// ---- iterative refinement --------------------------------------------------

/// Infinity norm of A (max absolute row sum) — permutation-invariant, so
/// the permuted matrix gives the original matrix's norm directly.
double matrix_inf_norm(const CscMatrix& a, std::vector<double>& rowsum) {
  rowsum.assign(sz(a.nrows()), 0.0);
  const auto rowind = a.rowind();
  const auto values = a.values();
  for (std::size_t p = 0; p < values.size(); ++p)
    rowsum[sz(rowind[p])] += std::abs(values[p]);
  double norm = 0.0;
  for (double s : rowsum) norm = std::max(norm, s);
  return norm;
}

/// y += A·x in ORIGINAL coordinates, scattered through the permuted
/// matrix: analysis.permuted stores B = P A Pᵀ with B(i,j) =
/// A(perm[i], perm[j]), so entry (i,j,v) contributes v·x[perm[j]] to
/// y[perm[i]].
void add_ax_original(const Analysis& analysis, const double* x, double* y) {
  const CscMatrix& a = *analysis.permuted;
  const auto& perm = analysis.perm;
  const index_t n = a.ncols();
  for (index_t j = 0; j < n; ++j) {
    const auto rows = a.column(j);
    const auto vals = a.column_values(j);
    const double xj = x[perm[sz(j)]];
    for (std::size_t p = 0; p < rows.size(); ++p)
      y[perm[sz(rows[p])]] += vals[p] * xj;
  }
}

/// Residual-driven refinement: r = b − A·x, worst-column normwise
/// backward error, re-solve for a correction, repeat while improving.
/// Returns the pass count and writes the final backward error.
index_t refine_solution(const Analysis& analysis, const Factorization& fact,
                        const SolveGraph& graph, std::span<const double> b,
                        index_t nrhs, std::span<double> x, SolveWorkspace& ws,
                        unsigned workers, const SolveOptions& options,
                        double& backward_error) {
  require(analysis.permuted.has_value() && analysis.permuted->has_values(),
          "solve refinement: analysis kept no matrix values");
  const index_t n = analysis.tree.num_cols();
  std::vector<double> scratch;
  const double anorm = matrix_inf_norm(*analysis.permuted, scratch);
  std::vector<double> r(b.size());
  std::vector<double> d(b.size());

  const auto compute_berr = [&]() {
    std::copy(b.begin(), b.end(), r.begin());
    for (index_t c = 0; c < nrhs; ++c) {
      // r_col = b_col − A·x_col: negate, add A·x, negate back keeps the
      // scatter additive; cheaper to scatter −A·x then flip signs.
      double* rcol = r.data() + off(c, n);
      const double* xcol = x.data() + off(c, n);
      d.assign(d.size(), 0.0);  // reuse d as the A·x buffer
      add_ax_original(analysis, xcol, d.data() + off(c, n));
      for (index_t i = 0; i < n; ++i) rcol[i] -= d[off(c, n) + sz(i)];
    }
    double worst = 0.0;
    for (index_t c = 0; c < nrhs; ++c) {
      const double* rcol = r.data() + off(c, n);
      const double* xcol = x.data() + off(c, n);
      const double* bcol = b.data() + off(c, n);
      double rinf = 0.0, xinf = 0.0, binf = 0.0;
      for (index_t i = 0; i < n; ++i) {
        rinf = std::max(rinf, std::abs(rcol[i]));
        xinf = std::max(xinf, std::abs(xcol[i]));
        binf = std::max(binf, std::abs(bcol[i]));
      }
      const double denom = anorm * xinf + binf;
      worst = std::max(worst, denom > 0.0 ? rinf / denom : rinf);
    }
    return worst;
  };

  double berr = compute_berr();
  index_t iters = 0;
  while (berr > options.refine_tolerance && iters < options.max_refine_iters) {
    MEMFRONT_SPAN("solve_refine", iters);
    run_solve(analysis, fact, graph, r, nrhs, d, ws, workers,
              /*scalar=*/false);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += d[i];
    ++iters;
    const double next = compute_berr();
    if (next >= berr) {
      berr = next;
      break;  // stagnated — rounding floor reached
    }
    berr = next;
  }
  backward_error = berr;
  return iters;
}

}  // namespace

void SolveWorkspace::bind(const SolveGraph& graph, index_t n, index_t nrhs,
                          unsigned workers) {
  y.resize(off(n, nrhs));
  cb.resize(static_cast<std::size_t>(graph.cb_rows) *
            static_cast<std::size_t>(nrhs));
  scratch.resize(workers);
  for (Scratch& s : scratch) {
    s.front.resize(off(graph.max_nfront, nrhs));
    s.gather.resize(off(graph.max_ncb, nrhs));
    s.pos.resize(sz(graph.max_ncb));
  }
}

SolveGraph build_solve_graph(const Analysis& analysis,
                             const SolveOptions& options) {
  check(analysis.structure.has_value(),
        "build_solve_graph: analysis ran without structure");
  const AssemblyTree& tree = analysis.tree;
  SolveGraph g;
  g.nprocs = options.nprocs > 0
                 ? options.nprocs
                 : static_cast<index_t>(resolve_workers(options));
  g.subtree_options = options.subtree_options;
  g.subtrees =
      find_subtrees(tree, analysis.memory, g.nprocs, options.subtree_options);
  split_subtree_nodes(g.subtrees, analysis.traversal, g.subtree_nodes,
                      g.upper_nodes);
  fill_cb_offsets(tree, g);
  return g;
}

void solve_factorized_multi(const Analysis& analysis,
                            const Factorization& fact,
                            const SolveGraph& graph,
                            std::span<const double> b, index_t nrhs,
                            std::span<double> x, SolveWorkspace& workspace,
                            const SolveOptions& options, SolveStats* stats) {
  const unsigned workers = resolve_workers(options);
  const auto start = std::chrono::steady_clock::now();
  SolveStats local;
  SolveStats& out = stats ? *stats : local;
  // Out-of-core factorizations leave factor panels on disk: page every
  // panel back in before the sweeps touch fact.nodes[].
  ensure_factors_resident(fact);
  {
    MEMFRONT_SPAN("solve", nrhs);
    run_solve(analysis, fact, graph, b, nrhs, x, workspace, workers,
              /*scalar=*/false);
    if (options.max_refine_iters > 0) {
      out.refine_iters =
          refine_solution(analysis, fact, graph, b, nrhs, x, workspace,
                          workers, options, out.backward_error);
      if (out.refine_iters > 0) {
        static obs::Counter& refine_iters = obs::MetricsRegistry::global()
            .counter("solver.solve.refinement_iters");
        refine_iters.add(out.refine_iters);
      }
    }
  }
  obs::record_solve_stats(
      nrhs, workers,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

std::vector<double> solve_factorized_multi(const Analysis& analysis,
                                           const Factorization& fact,
                                           std::span<const double> b,
                                           index_t nrhs,
                                           const SolveOptions& options) {
  const SolveGraph graph = build_solve_graph(analysis, options);
  SolveWorkspace workspace;
  std::vector<double> x(b.size());
  solve_factorized_multi(analysis, fact, graph, b, nrhs, x, workspace,
                         options);
  return x;
}

std::vector<double> solve_factorized(const Analysis& analysis,
                                     const Factorization& fact,
                                     std::span<const double> b,
                                     const SolveOptions& options) {
  // Repeated single-RHS solves are the service hot path: keep one graph
  // + workspace per thread, rebuilt only when the analysis (identified
  // by address and shape) or the mapping knobs change.
  struct Cache {
    const Analysis* analysis = nullptr;
    index_t n = -1;
    index_t num_nodes = -1;
    count_t factor_entries = -1;
    index_t nprocs = -1;
    SubtreeOptions subtree_options{};
    SolveGraph graph;
    SolveWorkspace workspace;
  };
  thread_local Cache cache;

  const index_t n = analysis.tree.num_cols();
  const index_t nn = analysis.tree.num_nodes();
  const count_t fe = analysis.tree.total_factor_entries();
  const index_t nprocs = options.nprocs > 0
                             ? options.nprocs
                             : static_cast<index_t>(resolve_workers(options));
  if (cache.analysis != &analysis || cache.n != n || cache.num_nodes != nn ||
      cache.factor_entries != fe || cache.nprocs != nprocs ||
      !(cache.subtree_options == options.subtree_options)) {
    SolveOptions gopts = options;
    gopts.nprocs = nprocs;
    cache.graph = build_solve_graph(analysis, gopts);
    cache.analysis = &analysis;
    cache.n = n;
    cache.num_nodes = nn;
    cache.factor_entries = fe;
    cache.nprocs = nprocs;
    cache.subtree_options = options.subtree_options;
  }
  std::vector<double> x(b.size());
  solve_factorized_multi(analysis, fact, cache.graph, b, 1, x,
                         cache.workspace, options);
  return x;
}

std::vector<double> solve_reference(const Analysis& analysis,
                                    const Factorization& fact,
                                    std::span<const double> b) {
  check(analysis.structure.has_value(),
        "solve_reference: analysis ran without structure");
  ensure_factors_resident(fact);
  SolveGraph graph;  // serial sweep: only the slab layout is needed
  fill_cb_offsets(analysis.tree, graph);
  SolveWorkspace workspace;
  std::vector<double> x(b.size());
  run_solve(analysis, fact, graph, b, 1, x, workspace, /*workers=*/1,
            /*scalar=*/true);
  return x;
}

}  // namespace memfront
