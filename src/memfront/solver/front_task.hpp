// Shared per-node engine of the numeric factorization drivers.
//
// One call of process_front does everything a single assembly-tree node
// needs — zero the front scratch, assemble the original entries, scatter
// the children's contribution blocks through the precomputed local map,
// run the (blocked or reference) partial factorization, record the pivot
// row swaps, extract the factor panel, and copy the contribution block
// out — against caller-owned storage. The sequential driver calls it down
// the postorder with an arena CB stack; the parallel driver calls it from
// subtree and upper-part tasks with per-worker workspaces.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "memfront/solver/numeric_factor.hpp"

namespace memfront::numeric_detail {

/// Immutable, shareable inputs of every node task.
struct FrontContext {
  const AssemblyTree* tree = nullptr;
  const FrontalStructure* structure = nullptr;
  const CscMatrix* a = nullptr;   // permuted matrix, with values
  const CscMatrix* at = nullptr;  // its transpose (unsymmetric only)
  bool symmetric = false;
  FrontalKernel kernel = FrontalKernel::kBlocked;
};

/// Per-worker reusable buffers (never shared between threads).
struct FrontWorkspace {
  std::vector<double> front;      // scratch for the current front
  std::vector<index_t> local;     // global row -> front-local row, kNone-init
  std::vector<index_t> positions;  // child CB scatter map scratch
  /// Helpers for the blocked kernels' large trailing updates (the
  /// parallel driver's worker pool); null runs every front alone.
  FrontTeam* team = nullptr;

  void init(index_t num_cols) {
    local.assign(static_cast<std::size_t>(num_cols), kNone);
  }
  /// The front scratch for an order-n node, grown on demand and zeroed.
  FrontView acquire_front(index_t n) {
    const std::size_t need =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    if (front.size() < need) front.resize(need);
    std::fill(front.begin(), front.begin() + static_cast<std::ptrdiff_t>(need),
              0.0);
    return FrontView{front.data(), n, n};
  }
};

/// Per-node numeric-robustness report the drivers fold into FactorStats.
struct FrontResult {
  index_t perturbations = 0;
  index_t exact_zero_pivots = 0;
  double max_pivot_abs = 0.0;
};

/// Provider of the children's extend-adds, for drivers that cannot
/// afford all the CBs resident at once (the out-of-core path):
/// assemble(c, front, positions) must scatter child c's CB into the
/// front through `positions` (the front-local row of each CB index) —
/// exactly what extend_add_mapped does — but may source the CB from
/// disk one column panel at a time, so the memory window is a single
/// panel instead of the whole child. That window is what lets a budget
/// smaller than the in-core arena peak run to completion.
struct ChildStream {
  std::function<void(std::size_t c, FrontView front,
                     std::span<const index_t> positions)>
      assemble;
};

/// Factors node i into `front` (from ws.acquire_front(nfront(i))).
/// `child_cbs[c]` is child c's contribution block (order ncb(child),
/// column-major, leading dimension = its order), in the tree's child
/// order. Pivot row swaps are applied to `row_of` (node-local index
/// range, so concurrent callers on distinct nodes never conflict).
/// Returns the node's pivot report; throws SolverError(kPivotBreakdown)
/// when a factored pivot comes out non-finite (NaN/Inf reached the pivot
/// block). The caller then releases the children and extracts the CB
/// from the still-live front (extract_cb) — that split is what lets the
/// drivers keep the arena LIFO discipline.
FrontResult process_front(const FrontContext& ctx, index_t i,
                          std::span<const double* const> child_cbs,
                          FrontWorkspace& ws, FrontView front, NodeFactor& out,
                          std::vector<index_t>& row_of);

/// The streaming variant: identical arithmetic in the identical order
/// (bit-identical results), with each child CB materialized only for
/// the duration of its own extend-add.
FrontResult process_front(const FrontContext& ctx, index_t i,
                          const ChildStream& children, FrontWorkspace& ws,
                          FrontView front, NodeFactor& out,
                          std::vector<index_t>& row_of);

/// Copies the Schur block of a factored front (order ncb = n - npiv) into
/// `cb_out` (column-major, leading dimension ncb).
void extract_cb(FrontView front, index_t npiv, double* cb_out);

}  // namespace memfront::numeric_detail
