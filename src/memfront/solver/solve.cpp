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
/// starts at row graph->cb_offset[i]). Both are RHS-interleaved, as is
/// every per-worker scratch panel: row-major, the k values of one row
/// contiguous (see frontal/kernels.hpp).
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

/// Rows of one diagonal block of the forward elimination.
constexpr index_t kSolveBlock = 48;

/// Row `row` of an RHS-interleaved panel with k values per row.
inline double* panel_row(double* panel, index_t row, index_t k) {
  return panel + off(row, k);
}

inline double* cb_block(const SolveContext& ctx, index_t node) {
  return ctx.cb + static_cast<std::size_t>(
                      ctx.graph->cb_offset[sz(node)]) *
                      static_cast<std::size_t>(ctx.k);
}

/// Forward elimination of an nfront x k front panel F against the
/// unit-lower L of `panel`, in kSolveBlock-row diagonal blocks: the
/// block's triangle, then one rhs_update of every row below it by the
/// block's columns. Each element still subtracts L(r,t)·F(t) for
/// increasing t, the scalar loop's chain. With one column, the lanes run
/// across front rows: the triangle column by column, the update as a
/// one-column tile.
void forward_eliminate(const double* panel, index_t nfront, index_t npiv,
                       index_t k, double* F) {
  for (index_t j0 = 0; j0 < npiv; j0 += kSolveBlock) {
    const index_t j1 = std::min(j0 + kSolveBlock, npiv);
    const double* lblock = panel + off(j0, nfront);  // L(:, j0)
    if (k == 1) {
      for (index_t t = j0; t + 1 < j1; ++t)
        rhs_update(j1 - t - 1, 1, 1, panel + off(t, nfront) + t + 1, nfront,
                   F + t, 1, 0, F + t + 1, 1);
      if (j1 < nfront)
        rhs_update(nfront - j1, 1, j1 - j0, lblock + j1, nfront, F + j0, 1,
                   0, F + j1, 1);
      continue;
    }
    for (index_t r = j0 + 1; r < j1; ++r)
      rhs_row(k, r - j0, lblock + r, nfront, panel_row(F, j0, k), k,
              panel_row(F, r, k), nullptr);
    if (j1 < nfront)
      rhs_update(k, nfront - j1, j1 - j0, panel_row(F, j0, k), k,
                 lblock + j1, nfront, 1, panel_row(F, j1, k), k);
  }
}

/// Forward elimination of one front: gather, extend-add the children's
/// CB-RHS blocks (tree child order), eliminate, scatter. The only shared
/// writes are this node's own pivot rows of y and its own slab slice,
/// so tasks for different nodes never conflict.
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

  // Gather: the pivot rows are rows [fc, fc+npiv) of y, one contiguous
  // slice; the CB rows start from zero.
  std::memcpy(F, panel_row(ctx.y, fc, k), off(npiv, k) * sizeof(double));
  std::fill(panel_row(F, npiv, k), panel_row(F, nfront, k), 0.0);

  // Extend-add the children's CB-RHS blocks in tree child order, whole
  // rows at a time. Both row lists are sorted and the child's CB set is
  // a subset of this front's rows, so one merge walk yields the local
  // positions.
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
    for (index_t t = 0; t < ccb; ++t) {
      double* frow = panel_row(F, pos[t], k);
      const double* brow = block + off(t, k);
      for (index_t c = 0; c < k; ++c) frow[c] += brow[c];
    }
  }

  // Eliminate. The scalar loop and the kernels apply the same
  // per-element update chains (products in increasing pivot order, the
  // multiplier read after its own row finished) — bit-identical.
  const double* panel = nf.panel.data();
  if (ctx.scalar) {
    for (index_t c = 0; c < k; ++c) {
      double* fcol = F + c;  // column c, stride k
      for (index_t j = 0; j < npiv; ++j) {
        const double xj = fcol[off(j, k)];
        const double* col = panel + off(j, nfront);
        for (index_t r = j + 1; r < nfront; ++r)
          fcol[off(r, k)] -= col[r] * xj;
      }
    }
  } else if (npiv > 0) {
    forward_eliminate(panel, nfront, npiv, k, F);
  }

  // Scatter: solved pivots back to y, CB rows into this node's slab
  // slice for the parent's extend-add.
  std::memcpy(panel_row(ctx.y, fc, k), F, off(npiv, k) * sizeof(double));
  if (ncb > 0)
    std::memcpy(cb_block(ctx, i), panel_row(F, npiv, k),
                off(ncb, k) * sizeof(double));
}

/// Back-substitution of one front: gather the forward-solved pivot
/// values and the already-solved ancestor values its CB rows reference,
/// subtract their products, solve the pivot block row by row from the
/// bottom, scatter. Writes only this node's pivot rows of y.
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

  std::memcpy(F, panel_row(ctx.y, fc, k), off(npiv, k) * sizeof(double));
  for (index_t t = 0; t < ncb; ++t)
    std::memcpy(panel_row(G, t, k), panel_row(ctx.y, rows[sz(npiv + t)], k),
                sz(k) * sizeof(double));

  const double* panel = nf.panel.data();
  if (ctx.fact->symmetric) {
    // LDLt: scale by D, subtract the L21-transposed products of the
    // ancestor values, then the unit-lower transposed backward solve.
    for (index_t j = 0; j < npiv; ++j) {
      const double d = panel[off(j, nfront) + sz(j)];
      double* frow = panel_row(F, j, k);
      for (index_t c = 0; c < k; ++c) frow[c] /= d;
    }
    if (ctx.scalar) {
      for (index_t c = 0; c < k; ++c) {
        double* fcol = F + c;
        const double* gcol = G + c;
        for (index_t j = 0; j < npiv; ++j) {
          const double* col = panel + off(j, nfront);
          double sum = fcol[off(j, k)];
          for (index_t t = 0; t < ncb; ++t)
            sum -= col[npiv + t] * gcol[off(t, k)];
          fcol[off(j, k)] = sum;
        }
        for (index_t j = npiv - 1; j >= 0; --j) {
          const double* col = panel + off(j, nfront);
          double sum = fcol[off(j, k)];
          for (index_t t = j + 1; t < npiv; ++t)
            sum -= col[t] * fcol[off(t, k)];
          fcol[off(j, k)] = sum;
        }
      }
    } else {
      // L21ᵀ(j, t) = L(npiv+t, j): column j of the panel below the pivots.
      if (ncb > 0)
        rhs_update(k, npiv, ncb, G, k, panel + npiv, 1, nfront, F, k);
      for (index_t j = npiv - 1; j >= 0; --j)
        rhs_row(k, npiv - 1 - j, panel + off(j, nfront) + sz(j) + 1, 1,
                panel_row(F, j + 1, k), k, panel_row(F, j, k), nullptr);
    }
  } else {
    // LU: subtract the U12 products of the ancestor values, then the
    // non-unit upper backward solve on U11.
    const double* u12 = nf.u12.data();
    if (ctx.scalar) {
      for (index_t c = 0; c < k; ++c) {
        double* fcol = F + c;
        const double* gcol = G + c;
        for (index_t j = 0; j < npiv; ++j) {
          double sum = fcol[off(j, k)];
          for (index_t t = 0; t < ncb; ++t)
            sum -= u12[off(t, npiv) + sz(j)] * gcol[off(t, k)];
          fcol[off(j, k)] = sum;
        }
        for (index_t j = npiv - 1; j >= 0; --j) {
          double sum = fcol[off(j, k)];
          for (index_t t = j + 1; t < npiv; ++t)
            sum -= panel[off(t, nfront) + sz(j)] * fcol[off(t, k)];
          fcol[off(j, k)] = sum / panel[off(j, nfront) + sz(j)];
        }
      }
    } else {
      // U12 is npiv x ncb column-major. One column runs its lanes across
      // the pivot rows, the U12 columns' contiguous direction.
      if (ncb > 0) {
        if (k == 1)
          rhs_update(npiv, 1, ncb, u12, npiv, G, 1, 0, F, 1);
        else
          rhs_update(k, npiv, ncb, G, k, u12, npiv, 1, F, k);
      }
      // Row j reads U(j, j+1:npiv) with a stride of nfront; the last row
      // reads none (and its first would lie past the panel).
      for (index_t j = npiv - 1; j >= 0; --j)
        rhs_row(k, npiv - 1 - j,
                j + 1 < npiv ? panel + off(j + 1, nfront) + sz(j) : nullptr,
                nfront, panel_row(F, j + 1, k), k, panel_row(F, j, k),
                panel + off(j, nfront) + sz(j));
    }
  }

  std::memcpy(panel_row(ctx.y, fc, k), F, off(npiv, k) * sizeof(double));
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

/// Rows of y one pass of the permute-in/out transpose covers.
constexpr index_t kPermuteRows = 256;

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
  // row permutation picked up during factorization, transposing the
  // caller's column-major panel into the RHS-interleaved y. Blocks of
  // kPermuteRows rows keep the y rows being filled in cache while each
  // column is read.
  for (index_t r0 = 0; r0 < n; r0 += kPermuteRows) {
    const index_t r1 = std::min(r0 + kPermuteRows, n);
    for (index_t c = 0; c < nrhs; ++c) {
      const double* bcol = b.data() + off(c, n);
      double* yc = ws.y.data() + c;
      for (index_t kk = r0; kk < r1; ++kk)
        yc[off(kk, nrhs)] = bcol[analysis.perm[sz(fact.row_of[sz(kk)])]];
    }
  }

  if (workers <= 1) {
    run_serial(ctx, ws.scratch[0]);
  } else {
    run_parallel_sweep(ctx, ws, workers, /*forward=*/true);
    run_parallel_sweep(ctx, ws, workers, /*forward=*/false);
  }

  // Back to the original ordering and the column-major layout.
  for (index_t r0 = 0; r0 < n; r0 += kPermuteRows) {
    const index_t r1 = std::min(r0 + kPermuteRows, n);
    for (index_t c = 0; c < nrhs; ++c) {
      const double* yc = ws.y.data() + c;
      double* xcol = x.data() + off(c, n);
      for (index_t kk = r0; kk < r1; ++kk)
        xcol[analysis.perm[sz(kk)]] = yc[off(kk, nrhs)];
    }
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
