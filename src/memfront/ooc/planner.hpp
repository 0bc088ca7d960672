// Minimum-budget planner for the out-of-core execution mode.
//
// The paper's concluding argument (Section 7) is that with factors on
// disk the stack is the memory footprint; the natural follow-up question
// — answered here, in the spirit of Eyraud-Dubois et al. (RR-8606) and
// Marchal et al. (RR-8082) — is: *how small* can the per-processor
// in-core budget get before a given tree/mapping/strategy stops fitting?
// A budget B is feasible when the budgeted simulation honors it on every
// processor after draining factor writes and spilling every resident
// contribution block (ParallelResult::ooc_feasible()). The planner
// binary-searches the smallest feasible B between a trivial lower bound
// and the unlimited-budget in-core peak, and can sweep the budget axis to
// report the I/O-volume and stall-time price of each budget level.
//
// Feasibility is treated as monotone in B. Spill timing does feed back
// into the dynamic scheduling, so pathological non-monotone pockets are
// conceivable; tests/ooc_test.cpp validates the search against exhaustive
// budget scans on small trees.
#pragma once

#include <vector>

#include "memfront/core/parallel_factor.hpp"

namespace memfront {

/// One budgeted simulation, reduced to the planner-relevant numbers.
struct BudgetPoint {
  count_t budget = 0;  // per-processor budget the run was given (0 = ∞)
  bool feasible = false;
  count_t max_stack_peak = 0;          // in-core residency peak
  count_t factor_write_entries = 0;    // Σ over processors
  count_t spill_entries = 0;
  count_t reload_entries = 0;
  double stall_time = 0.0;
  double makespan = 0.0;

  count_t io_entries() const noexcept {
    return factor_write_entries + spill_entries + reload_entries;
  }
};

struct PlannerOptions {
  /// Extra sweep of the feasible range [min_budget, incore_peak] with this
  /// many evenly spaced budgets (0 = no curve).
  index_t curve_points = 0;

  /// Field-wise equality (part of the planner memo key).
  friend bool operator==(const PlannerOptions&,
                         const PlannerOptions&) = default;
};

struct PlannerResult {
  /// In-core residency peak of the unlimited-budget OOC run (factors
  /// stream to disk, nothing spills): the budget above which the disk
  /// sees only the factor write-back.
  count_t incore_peak = 0;
  /// Smallest per-processor budget the simulation honors.
  count_t min_budget = 0;
  /// The run at min_budget (I/O volume, stalls, makespan).
  BudgetPoint at_min{};
  /// The unlimited-budget run, for comparison.
  BudgetPoint unlimited{};
  /// I/O volume / stall / makespan vs budget (ascending budgets), when
  /// requested via PlannerOptions::curve_points.
  std::vector<BudgetPoint> curve;
};

/// Runs one budgeted out-of-core simulation (config.ooc.enabled and the
/// budget are overridden by `budget`). The building block of the planner
/// and of brute-force validation.
BudgetPoint evaluate_budget(const AssemblyTree& tree,
                            const StaticMapping& mapping,
                            const std::vector<index_t>& traversal,
                            SchedConfig config, count_t budget);

/// Binary-searches the minimum feasible per-processor budget for the given
/// tree/mapping/strategy. `config.ooc.disk` and the spill knobs are
/// honored; `config.ooc.enabled`/`budget` are planner-controlled. The
/// simulation reads nothing of `memory`.
PlannerResult plan_minimum_budget(const AssemblyTree& tree,
                                  const TreeMemory& memory,
                                  const StaticMapping& mapping,
                                  const std::vector<index_t>& traversal,
                                  SchedConfig config,
                                  const PlannerOptions& options = {});

}  // namespace memfront
