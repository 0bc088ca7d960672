#include "memfront/ooc/planner.hpp"

#include <algorithm>

#include "memfront/support/error.hpp"
#include "memfront/support/parallel_for.hpp"

namespace memfront {

BudgetPoint evaluate_budget(const AssemblyTree& tree,
                            const StaticMapping& mapping,
                            const std::vector<index_t>& traversal,
                            SchedConfig config, count_t budget) {
  config.ooc.enabled = true;
  config.ooc.budget = budget;
  const ParallelResult result =
      simulate_parallel_factorization(tree, mapping, traversal, config);
  BudgetPoint point;
  point.budget = budget;
  point.feasible = result.ooc_feasible();
  point.max_stack_peak = result.max_stack_peak;
  point.factor_write_entries = result.ooc_factor_write_entries;
  point.spill_entries = result.ooc_spill_entries;
  point.reload_entries = result.ooc_reload_entries;
  point.stall_time = result.ooc_stall_time;
  point.makespan = result.makespan;
  return point;
}

PlannerResult plan_minimum_budget(const AssemblyTree& tree,
                                  const TreeMemory& /*memory*/,
                                  const StaticMapping& mapping,
                                  const std::vector<index_t>& traversal,
                                  SchedConfig config,
                                  const PlannerOptions& options) {
  PlannerResult result;
  // Anchor: unlimited budget. Factors still stream to disk, nothing
  // spills; the in-core residency peak of this run is always feasible as a
  // budget (admission triggers strictly above the budget, so re-running at
  // exactly the peak changes nothing).
  result.unlimited = evaluate_budget(tree, mapping, traversal, config, 0);
  result.incore_peak = result.unlimited.max_stack_peak;
  check(result.incore_peak > 0, "plan_minimum_budget: empty simulation");

  // Bisection invariant: hi is feasible; budgets <= lo are not known
  // feasible. lo itself is never evaluated (mids are strictly between),
  // which matters because budget 0 is the *unlimited* sentinel in the
  // simulator, not an empty memory.
  count_t hi = result.incore_peak;
  count_t lo = 0;
  BudgetPoint at_hi = evaluate_budget(tree, mapping, traversal, config, hi);
  // Guard against the pathological case where timing feedback makes the
  // peak-sized budget itself infeasible: walk the anchor up geometrically.
  while (!at_hi.feasible) {
    hi += std::max<count_t>(1, hi / 2);
    at_hi = evaluate_budget(tree, mapping, traversal, config, hi);
  }
  while (hi - lo > 1) {
    const count_t mid = lo + (hi - lo) / 2;
    const BudgetPoint at_mid =
        evaluate_budget(tree, mapping, traversal, config, mid);
    if (at_mid.feasible) {
      hi = mid;
      at_hi = at_mid;
    } else {
      lo = mid;
    }
  }
  result.min_budget = hi;
  result.at_min = at_hi;

  if (options.curve_points > 0 && result.incore_peak > result.min_budget) {
    // Every curve point is an independent budgeted simulation: run them
    // concurrently, gathered in ascending-budget order.
    const count_t span = result.incore_peak - result.min_budget;
    const index_t n = options.curve_points;
    std::vector<count_t> budgets;
    budgets.reserve(static_cast<std::size_t>(n));
    for (index_t k = 0; k < n; ++k)
      budgets.push_back(n == 1 ? result.min_budget
                               : result.min_budget + span * k / (n - 1));
    result.curve = parallel_map(budgets, [&](count_t b) {
      return evaluate_budget(tree, mapping, traversal, config, b);
    });
  }
  return result;
}

}  // namespace memfront
