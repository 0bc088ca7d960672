// Per-node engine of the numeric factorization driver.
//
// One call of factor_node does everything a single assembly-tree node
// needs — admit its front on the coordinator's ledger, zero the front
// scratch, assemble the original entries, scatter the children's
// contribution blocks through the precomputed local map, run the
// (blocked or reference) partial factorization, record the pivot row
// swaps, extract the factor panel, keep the contribution block and
// release the front. Every CB lives in the OocCoordinator, in core (an
// unlimited budget) and under a budget alike. The tree-task driver
// (solver/parallel_numeric) calls it from subtree and upper-part tasks
// with per-worker workspaces; its one-worker run, numeric_factorize,
// thereby calls it down the postorder.
#pragma once

#include <algorithm>
#include <vector>

#include "memfront/solver/numeric_factor.hpp"

namespace memfront {
class OocCoordinator;
}

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
  /// driver's scheduler); null runs every front alone.
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

/// Per-node numeric-robustness report the driver folds into FactorStats.
struct FrontResult {
  index_t perturbations = 0;
  index_t exact_zero_pivots = 0;
  double max_pivot_abs = 0.0;
};

/// Factors node i on `worker`: begin_node admits its front, the children
/// are consumed through assemble_child in the tree's child order (a
/// spilled one streams back panel by panel), store_cb keeps the Schur
/// block once the children are gone, and end_node releases the front —
/// the LIFO discipline's two coexistence windows, charged on the ledger.
/// The factor panel goes to `out`, pivot row swaps to `row_of`
/// (node-local index range, so concurrent callers on distinct nodes never
/// conflict). Returns the node's pivot report; throws
/// SolverError(kPivotBreakdown) when a factored pivot comes out
/// non-finite (NaN/Inf reached the pivot block).
FrontResult factor_node(const FrontContext& ctx, index_t i, index_t worker,
                        OocCoordinator& coord, FrontWorkspace& ws,
                        NodeFactor& out, std::vector<index_t>& row_of);

/// Copies the Schur block of a factored front (order ncb = n - npiv) into
/// `cb_out` (column-major, leading dimension ncb).
void extract_cb(FrontView front, index_t npiv, double* cb_out);

}  // namespace memfront::numeric_detail
