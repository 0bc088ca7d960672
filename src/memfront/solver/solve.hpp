// Triangular solves using the multifrontal factors.
//
// The solve is a *front-based multifrontal sweep* over the assembly
// tree, not a flat substitution over the assembled factors. Forward
// elimination visits nodes bottom-up: gather the front's RHS panel
// (pivot rows from the global panel, CB rows zeroed), extend-add the
// children's CB-RHS blocks in tree child order, eliminate (the pivot
// block's unit-lower triangle in 48-row diagonal blocks, each followed
// by an update of every row below it), scatter the solved pivots back
// and the CB rows into a per-node slab. Back-substitution visits nodes
// top-down with the dependency edges inverted: gather the
// already-solved ancestor values referenced by the node's CB rows,
// subtract their products, solve the pivot block row by row from the
// bottom, scatter. Every working panel is RHS-interleaved (row-major,
// the k values of one row contiguous), so each step runs the
// frontal/kernels.hpp RHS kernels across the right-hand sides.
//
// Because every floating-point association is fixed *per node* — by the
// tree, its child order, and the kernels' per-element update chains —
// the result is bit-identical across the serial sweep, the blocked
// multi-RHS sweep, and the tree-parallel sweep at any worker count and
// any nprocs mapping width. solve_reference is the scalar single-RHS
// implementation of the same algorithm (the solve-phase analogue of
// partial_lu_reference): the bit-exactness baseline of
// tests/solve_test.cpp and the "before" side of bench_solve.
#pragma once

#include <span>
#include <vector>

#include "memfront/solver/numeric_factor.hpp"
#include "memfront/symbolic/subtrees.hpp"

namespace memfront {

struct SolveOptions {
  /// Worker threads for the tree-parallel sweep: 1 (the default) runs
  /// the serial sweep on the calling thread; 0 = default_thread_count()
  /// (honors MEMFRONT_THREADS). Results are bit-identical at any value.
  unsigned nthreads = 1;
  /// Geist-Ng mapping width of the subtree task layer (parallel sweep
  /// only); 0 = the resolved worker count. Does not affect the bits.
  index_t nprocs = 0;
  SubtreeOptions subtree_options{};
  /// Iterative refinement passes after the sweep (0 = off, the default —
  /// fault-free results stay bit-identical to the unrefined sweep). Each
  /// pass computes r = b − A·x against the analysis' matrix values and
  /// re-solves for a correction; the loop stops early when the normwise
  /// backward error reaches `refine_tolerance` or stops improving. This
  /// is the standard accuracy-recovery companion of static pivot
  /// perturbation (FactorStats::perturbations).
  index_t max_refine_iters = 0;
  /// Normwise backward-error target of the refinement loop:
  /// ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf), per RHS column.
  double refine_tolerance = 1e-14;

  friend bool operator==(const SolveOptions&, const SolveOptions&) = default;
};

/// Per-solve report (filled when the caller passes a stats out-param).
struct SolveStats {
  /// Refinement passes actually run (0 when refinement is off or the
  /// first residual already met the tolerance).
  index_t refine_iters = 0;
  /// Worst per-column normwise backward error after the last pass;
  /// -1 when refinement was off (no residual computed).
  double backward_error = -1.0;
};

/// The static task structure of the solve sweeps, shared with the
/// factorization's front-task graph: the Geist-Ng subtree tasks run
/// bottom-up in the forward sweep and top-down (dependency edges
/// inverted) in the backward sweep. Build once per analysis and reuse
/// across solves; valid as long as the analysis it was built from.
struct SolveGraph {
  index_t nprocs = 0;  // effective mapping width
  SubtreeOptions subtree_options{};
  Subtrees subtrees;
  /// Postorder node list per subtree (the forward order; the backward
  /// sweep walks them reversed).
  std::vector<std::vector<index_t>> subtree_nodes;
  /// Upper-part nodes in traversal order.
  std::vector<index_t> upper_nodes;
  /// Row offset of each node's CB-RHS block in the slab (num_nodes + 1
  /// prefix sums of ncb); unlike the factorization's LIFO CB stack,
  /// every node owns a fixed slice, so tasks never contend.
  std::vector<count_t> cb_offset;
  count_t cb_rows = 0;
  index_t max_nfront = 0;
  index_t max_ncb = 0;
};

SolveGraph build_solve_graph(const Analysis& analysis,
                             const SolveOptions& options = {});

/// Reusable solve buffers: the n x k panel in elimination order, the
/// CB-RHS slab, and per-worker gather/scatter scratch. Every panel here
/// is RHS-interleaved: row-major, the nrhs values of one row contiguous,
/// so gathers, scatters and the extend-add move whole rows and the
/// kernels run one lane per right-hand side (the caller's b and x stay
/// column-major; the permute-in and permute-out transpose). bind()
/// resizes for a (graph, n, nrhs, workers) shape; repeated solves of
/// the same shape reuse them all (a parallel sweep still builds its
/// scheduler state per call). One workspace serves one solve at a time
/// (the parallel sweeps' workers share it by index).
struct SolveWorkspace {
  struct Scratch {
    std::vector<double> front;   // max_nfront rows: one front's panel
    std::vector<double> gather;  // max_ncb rows: backward ancestor values
    std::vector<index_t> pos;    // extend-add row positions
  };

  std::vector<double> y;   // n rows, elimination order
  std::vector<double> cb;  // cb_rows rows: every node's CB-RHS block
  std::vector<Scratch> scratch;

  void bind(const SolveGraph& graph, index_t n, index_t nrhs,
            unsigned workers);
};

/// Solves A X = B for an n x nrhs column-major panel (B and X in the
/// ORIGINAL row/column order). The allocation-free entry point: `x`
/// must be presized to b.size(), the graph must come from
/// build_solve_graph on the same analysis. options.nthreads selects the
/// serial or tree-parallel sweep; the bits do not depend on it.
void solve_factorized_multi(const Analysis& analysis,
                            const Factorization& fact,
                            const SolveGraph& graph,
                            std::span<const double> b, index_t nrhs,
                            std::span<double> x, SolveWorkspace& workspace,
                            const SolveOptions& options = {},
                            SolveStats* stats = nullptr);

/// Convenience overload: builds a graph and workspace per call.
std::vector<double> solve_factorized_multi(const Analysis& analysis,
                                           const Factorization& fact,
                                           std::span<const double> b,
                                           index_t nrhs,
                                           const SolveOptions& options = {});

/// Solves A x = b (b and x in the ORIGINAL row/column order). Routes
/// through the panel sweep with nrhs = 1, reusing a thread_local graph +
/// workspace so repeated solves against the same analysis allocate only
/// the result vector.
std::vector<double> solve_factorized(const Analysis& analysis,
                                     const Factorization& fact,
                                     std::span<const double> b,
                                     const SolveOptions& options = {});

/// The scalar single-RHS serial sweep, verbatim per-element order of the
/// blocked kernels: the bit-exactness baseline. Every solve_factorized*
/// variant must reproduce its result bit for bit.
std::vector<double> solve_reference(const Analysis& analysis,
                                    const Factorization& fact,
                                    std::span<const double> b);

}  // namespace memfront
