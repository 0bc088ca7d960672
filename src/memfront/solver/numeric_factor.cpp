#include "memfront/solver/numeric_factor.hpp"

#include <algorithm>
#include <optional>

#include "memfront/frontal/arena.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/ooc/coordinator.hpp"
#include "memfront/solver/front_task.hpp"
#include "memfront/support/error.hpp"

namespace memfront {

namespace {

/// The out-of-core variant of the sequential loop: same postorder, same
/// process_front/extract_cb split — but every storage decision routes
/// through the OocCoordinator's budget gate instead of the LIFO arena,
/// so CBs can leave RAM mid-traversal and factor panels stream to disk.
/// Bit-identical to the in-core loop: the storage location of a CB
/// never changes the values assembled from it.
Factorization factorize_ooc(const Analysis& analysis,
                            const NumericOptions& options,
                            const CscMatrix* at, double amax) {
  MEMFRONT_SPAN("numeric_factorize_ooc");
  const AssemblyTree& tree = analysis.tree;
  const bool sym = tree.symmetric();
  const index_t n = tree.num_cols();

  Factorization fact;
  fact.symmetric = sym;
  fact.nodes.resize(static_cast<std::size_t>(tree.num_nodes()));
  fact.row_of.resize(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k)
    fact.row_of[static_cast<std::size_t>(k)] = k;

  numeric_detail::FrontContext ctx;
  ctx.tree = &tree;
  ctx.structure = &*analysis.structure;
  ctx.a = &*analysis.permuted;
  ctx.at = at;
  ctx.symmetric = sym;
  ctx.kernel = options.kernel;

  numeric_detail::FrontWorkspace ws;
  ws.init(n);

  OocCoordinator coord(options.ooc, tree, /*workers=*/1);
  double max_pivot_abs = 0.0;

  for (index_t i : analysis.traversal) {
    const index_t nfront = tree.nfront(i);
    const index_t npiv = tree.npiv(i);
    const index_t ncb = nfront - npiv;
    const auto children = tree.children(i);

    coord.begin_node(i, /*worker=*/0);
    FrontView front = ws.acquire_front(nfront);

    // Children stream through the budget gate one at a time: a spilled
    // one scatters panel by panel (prefetching the next sibling), so
    // the window never exceeds the front plus one panel.
    const numeric_detail::ChildStream stream{
        [&](std::size_t c, FrontView f, std::span<const index_t> positions) {
          coord.assemble_child(
              children[c], /*worker=*/0,
              c + 1 < children.size() ? children[c + 1] : kNone, f, positions);
        }};
    const numeric_detail::FrontResult fr = numeric_detail::process_front(
        ctx, i, stream, ws, front, fact.nodes[static_cast<std::size_t>(i)],
        fact.row_of);
    fact.stats.perturbations += fr.perturbations;
    fact.stats.exact_zero_pivots += fr.exact_zero_pivots;
    max_pivot_abs = std::max(max_pivot_abs, fr.max_pivot_abs);
    fact.stats.factor_entries += tree.factor_entries(i);

    if (ncb > 0) coord.store_cb(i, /*worker=*/0, front, npiv);
    coord.end_node(i, fact.nodes[static_cast<std::size_t>(i)], /*worker=*/0);
  }
  fact.stats.ooc = coord.finish();
  if (options.ooc.spill_factors) fact.ooc_factors = coord.factor_state();
  fact.stats.arena_peak_doubles = fact.stats.ooc.charged_peak_doubles;
  fact.stats.pivot_growth_max = amax > 0.0 ? max_pivot_abs / amax : 0.0;
  obs::record_factor_stats(fact.stats);
  return fact;
}

}  // namespace

Factorization numeric_factorize(const Analysis& analysis,
                                const NumericOptions& options) {
  MEMFRONT_SPAN("numeric_factorize");
  check(analysis.structure.has_value(),
        "numeric_factorize: analysis ran without structure");
  check(analysis.permuted.has_value() && analysis.permuted->has_values(),
        "numeric_factorize: matrix has no values");
  require(!analysis.permuted->has_nonfinite_values(),
          "numeric_factorize: matrix contains NaN/Inf values");
  // Denominator of the pivot-growth report; one O(nnz) scan.
  const double amax = analysis.permuted->max_abs_value();
  if (options.ooc.enabled) {
    std::optional<CscMatrix> at_ooc;
    if (!analysis.tree.symmetric())
      at_ooc = analysis.permuted->transpose();
    return factorize_ooc(analysis, options, at_ooc ? &*at_ooc : nullptr,
                         amax);
  }
  const AssemblyTree& tree = analysis.tree;
  const bool sym = tree.symmetric();
  const index_t n = tree.num_cols();

  Factorization fact;
  fact.symmetric = sym;
  fact.nodes.resize(static_cast<std::size_t>(tree.num_nodes()));
  fact.row_of.resize(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k)
    fact.row_of[static_cast<std::size_t>(k)] = k;

  // Transposed matrix for unsymmetric row assembly.
  std::optional<CscMatrix> at;
  if (!sym) at = analysis.permuted->transpose();

  numeric_detail::FrontContext ctx;
  ctx.tree = &tree;
  ctx.structure = &*analysis.structure;
  ctx.a = &*analysis.permuted;
  ctx.at = at ? &*at : nullptr;
  ctx.symmetric = sym;
  ctx.kernel = options.kernel;

  numeric_detail::FrontWorkspace ws;
  ws.init(n);

  const count_t predicted_arena = predict_arena_peak(tree, analysis.traversal);
  FrontalArena arena(options.reserve_arena
                         ? static_cast<std::size_t>(predicted_arena)
                         : 0);
  // CB slots of the nodes whose parent has not run yet (arena pointers).
  std::vector<double*> cb(static_cast<std::size_t>(tree.num_nodes()), nullptr);
  std::vector<const double*> child_cbs;

  count_t stack = 0;  // model entries, the paper's unit
  std::size_t physical_peak = 0;
  double max_pivot_abs = 0.0;
  auto bump = [&](count_t delta) {
    stack += delta;
    fact.stats.measured_stack_peak =
        std::max(fact.stats.measured_stack_peak, stack);
  };
  auto sample_physical = [&](std::size_t front_doubles) {
    physical_peak = std::max(physical_peak, arena.in_use() + front_doubles);
  };

  for (index_t i : analysis.traversal) {
    const index_t nfront = tree.nfront(i);
    const index_t npiv = tree.npiv(i);
    const index_t ncb = nfront - npiv;
    const std::size_t front_doubles =
        static_cast<std::size_t>(nfront) * static_cast<std::size_t>(nfront);
    const auto children = tree.children(i);

    // Chain-link children hand their CB storage over in place (Section 6
    // splitting): account their release before the front allocation.
    for (index_t child : children)
      if (tree.is_chain_link(child)) bump(-tree.cb_entries(child));

    FrontView front = ws.acquire_front(nfront);
    bump(tree.front_entries(i));
    sample_physical(front_doubles);  // children CBs still stacked

    child_cbs.clear();
    for (index_t child : children)
      child_cbs.push_back(cb[static_cast<std::size_t>(child)]);

    const numeric_detail::FrontResult fr = numeric_detail::process_front(
        ctx, i, child_cbs, ws, front, fact.nodes[static_cast<std::size_t>(i)],
        fact.row_of);
    fact.stats.perturbations += fr.perturbations;
    fact.stats.exact_zero_pivots += fr.exact_zero_pivots;
    max_pivot_abs = std::max(max_pivot_abs, fr.max_pivot_abs);
    fact.stats.factor_entries += tree.factor_entries(i);

    // Release the children LIFO (the stack model frees ordinary children
    // only after the parent front exists; chain links were already
    // accounted above), then stack this node's CB from the live front.
    for (std::size_t c = children.size(); c-- > 0;) {
      const index_t child = children[c];
      const count_t child_sq = square(tree.ncb(child));
      arena.pop(cb[static_cast<std::size_t>(child)],
                static_cast<std::size_t>(child_sq));
      cb[static_cast<std::size_t>(child)] = nullptr;
      if (!tree.is_chain_link(child)) bump(-tree.cb_entries(child));
    }
    if (ncb > 0) {
      double* slot = arena.push(static_cast<std::size_t>(square(ncb)));
      numeric_detail::extract_cb(front, npiv, slot);
      cb[static_cast<std::size_t>(i)] = slot;
    }
    sample_physical(front_doubles);  // own CB pushed, front still live
    bump(tree.cb_entries(i) - tree.front_entries(i));
  }
  check(stack == 0, "numeric_factorize: stack not empty at the end");
  check(arena.in_use() == 0, "numeric_factorize: arena not empty at the end");
  fact.stats.arena_peak_doubles = static_cast<count_t>(physical_peak);
  fact.stats.arena_slabs = static_cast<count_t>(arena.slab_allocations());
  fact.stats.pivot_growth_max = amax > 0.0 ? max_pivot_abs / amax : 0.0;
  check(fact.stats.arena_peak_doubles == predicted_arena,
        "numeric_factorize: arena peak diverged from the predicted peak");
  obs::record_factor_stats(fact.stats);
  return fact;
}

}  // namespace memfront
