// Numeric multifrontal factorization: the types both entry points
// return, and the sequential entry point.
//
// numeric_factorize follows the analysis traversal with the paper's
// three storage areas — factors / CB stack / current front — where
// every contribution block lives in the OocCoordinator's ledger (in core
// is its unlimited budget), the front is a reused scratch buffer, and
// the elimination runs the blocked kernels of frontal/kernels.hpp. It is
// the one-worker run of the tree-task driver (solver/parallel_numeric):
// one whole-subtree task per tree root. In core, the ledger's physical
// peak is checked equal to predict_arena_peak of the traversal.
#pragma once

#include <memory>
#include <vector>

#include "memfront/frontal/kernels.hpp"
#include "memfront/ooc/config.hpp"
#include "memfront/solver/analysis.hpp"

namespace memfront {

struct OocFactorState;

/// Which partial-factorization kernels the numeric drivers run. The
/// reference kernels are the pre-blocking scalar loops — bit-identical
/// results, kept for tests and as bench_numeric's baseline.
enum class FrontalKernel : unsigned char { kBlocked, kReference };

struct NumericOptions {
  FrontalKernel kernel = FrontalKernel::kBlocked;
  /// Real out-of-core execution: when ooc.enabled, the CB stack and the
  /// live front run under ooc.budget_doubles, spilling to disk through
  /// the OocCoordinator. The result is bit-identical to the in-core
  /// run; factor panels stream to disk and reload at solve time.
  OocExecConfig ooc{};

  friend bool operator==(const NumericOptions&,
                         const NumericOptions&) = default;
};

struct NodeFactor {
  /// nfront x npiv panel, column-major: L (unit diagonal) strictly below
  /// the diagonal, U11 / D on and above it.
  std::vector<double> panel;
  /// npiv x ncb block, column-major: U12 (unsymmetric only).
  std::vector<double> u12;
};

struct FactorStats {
  count_t factor_entries = 0;
  index_t perturbations = 0;
  /// Pivots that were exactly zero before static perturbation — the
  /// factorization met an exactly singular pivot block.
  index_t exact_zero_pivots = 0;
  /// max |pivot used| / max |a_ij| over the whole factorization (0 when
  /// the matrix has no values or no pivots). Large values flag the
  /// accuracy loss that iterative refinement (SolveOptions::refine)
  /// exists to recover.
  double pivot_growth_max = 0.0;
  /// High-water mark of the coordinator's ledger — stacked CBs plus
  /// live fronts (plus in-flight writes under ooc.enabled) — in doubles
  /// of full-square storage. In core numeric_factorize checks it equals
  /// predict_arena_peak(tree, traversal) exactly; under a budget it is
  /// ooc.charged_peak_doubles.
  count_t arena_peak_doubles = 0;
  /// Real out-of-core accounting (all zero for in-core runs).
  OocExecStats ooc{};
};

struct Factorization {
  bool symmetric = false;
  std::vector<NodeFactor> nodes;
  /// Global pivoting effect: position k of the elimination order holds the
  /// (permuted) matrix row row_of[k] after the in-front row swaps.
  std::vector<index_t> row_of;
  FactorStats stats;
  /// Out-of-core runs: where the factor panels went (null for in-core).
  /// Holds the spill store alive; the solve entry points call
  /// ensure_factors_resident() before touching nodes[].
  std::shared_ptr<OocFactorState> ooc_factors;
};

/// Requires analysis.structure and values on analysis.permuted. Runs on
/// the calling thread.
Factorization numeric_factorize(const Analysis& analysis,
                                const NumericOptions& options = {});

/// Reloads factor panels an out-of-core factorization left on disk
/// (no-op for in-core factorizations or already-resident panels).
/// Thread-safe; logically const — restores the exact bytes the
/// factorization produced. Throws a structured kIoError on a truncated
/// or corrupted spill block.
void ensure_factors_resident(const Factorization& fact);

}  // namespace memfront
