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

  // Every storage decision goes through the coordinator's ledger: in
  // core (an unlimited budget) the CBs simply stay resident in LIFO
  // order; under a budget they may leave RAM mid-traversal and factor
  // panels stream to disk. Where a CB lives never changes the values
  // assembled from it, so both are bit-identical.
  OocCoordinator coord(options.ooc, tree, /*workers=*/1);

  count_t stack = 0;  // model entries, the paper's unit
  double max_pivot_abs = 0.0;
  auto bump = [&](count_t delta) {
    stack += delta;
    fact.stats.measured_stack_peak =
        std::max(fact.stats.measured_stack_peak, stack);
  };

  for (index_t i : analysis.traversal) {
    const auto children = tree.children(i);
    // Chain-link children hand their CB storage over in place (Section 6
    // splitting): account their release before the front allocation.
    for (index_t child : children)
      if (tree.is_chain_link(child)) bump(-tree.cb_entries(child));
    bump(tree.front_entries(i));

    const numeric_detail::FrontResult fr = numeric_detail::factor_node(
        ctx, i, /*worker=*/0, coord, ws,
        fact.nodes[static_cast<std::size_t>(i)], fact.row_of);
    fact.stats.perturbations += fr.perturbations;
    fact.stats.exact_zero_pivots += fr.exact_zero_pivots;
    max_pivot_abs = std::max(max_pivot_abs, fr.max_pivot_abs);
    fact.stats.factor_entries += tree.factor_entries(i);

    // The stack model frees ordinary children only after the parent
    // front exists (chain links were accounted above), then stacks this
    // node's CB and drops the front.
    for (index_t child : children)
      if (!tree.is_chain_link(child)) bump(-tree.cb_entries(child));
    bump(tree.cb_entries(i) - tree.front_entries(i));
  }
  check(stack == 0, "numeric_factorize: stack not empty at the end");
  const OocExecStats ooc = coord.finish();
  fact.stats.arena_peak_doubles = ooc.charged_peak_doubles;
  if (options.ooc.enabled) {
    fact.stats.ooc = ooc;
  } else {
    check(fact.stats.arena_peak_doubles ==
              predict_arena_peak(tree, analysis.traversal),
          "numeric_factorize: ledger peak diverged from the predicted peak");
  }
  fact.ooc_factors = coord.factor_state();
  fact.stats.pivot_growth_max = amax > 0.0 ? max_pivot_abs / amax : 0.0;
  obs::record_factor_stats(fact.stats);
  return fact;
}

}  // namespace memfront
