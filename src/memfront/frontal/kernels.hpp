// Blocked frontal kernels: panel factorization + cache-tiled trailing
// updates over raw column-major storage.
//
// The blocked kernels are *bit-identical* to the scalar column-at-a-time
// reference kernels (kept below for tests and benchmarks). The invariant
// that makes this true: every trailing-block element receives its rank-1
// updates as individual subtractions `c -= a * b`, in increasing pivot
// order — exactly the operation sequence the scalar loop applies to that
// element — and the operands of each product are the same finished panel
// entries. Register blocking reorders work *across* elements (which FP
// arithmetic cannot observe), never within one element's update chain, and
// no partial products are pre-accumulated. The SIMD register tile keeps
// one element per vector lane, and the library builds with
// -ffp-contract=off so no product is fused into its subtraction. Pivot
// search is untouched, so pivot sequences are identical too.
//
// Intra-front parallelism rides on the same invariant. Each panel's
// trailing work — the U12 triangular solve (LU) or the mirrored pivot
// rows (LDLt), then the Schur update — is independent per column, so a
// large update can be split into column blocks run by a FrontTeam. Every
// block starts a multiple of 4 columns (the register tile's width) past
// the panel, so each element is computed by the same register-tile call,
// with the same operands in the same order, as in the single unsplit
// call: the split moves whole elements between threads, never a part of
// one element's chain.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "memfront/support/types.hpp"

namespace memfront {

/// Smallest pivot magnitude accepted before static perturbation kicks in.
inline constexpr double kPivotFloor = 1e-12;

/// Column-major view of a square frontal matrix in caller-owned storage
/// (a CB or a scratch buffer).
struct FrontView {
  double* data = nullptr;
  index_t n = 0;   // order of the front
  index_t ld = 0;  // leading dimension (>= n)

  double& at(index_t r, index_t c) const {
    return data[static_cast<std::size_t>(c) * static_cast<std::size_t>(ld) +
                static_cast<std::size_t>(r)];
  }
  double* col(index_t c) const {
    return data + static_cast<std::size_t>(c) * static_cast<std::size_t>(ld);
  }
};

struct PartialFactorResult {
  /// Local pivot row chosen at each elimination step k (a row in [k,npiv)).
  std::vector<index_t> pivot_rows;
  /// Number of pivots that needed a static perturbation.
  index_t perturbations = 0;
  /// Pivots that were *exactly* zero before perturbation: at those steps
  /// the pivot block is exactly singular (structural or cancellation).
  index_t exact_zero_pivots = 0;
  /// Largest |pivot| actually divided by (post-perturbation). Together
  /// with the matrix amax this gives the pivot-growth estimate
  /// max|pivot| / max|a_ij| in FactorStats. Tracking is comparisons
  /// only, so the kernels stay bit-identical.
  double max_pivot_abs = 0.0;
};

/// Helpers a blocked kernel may hand the column blocks of a large
/// trailing update to (the solver's worker pool implements it).
class FrontTeam {
 public:
  /// Runs body(b) once for every b in [0, n), on the calling thread and
  /// any helpers, in any order, and returns when every call has
  /// finished. If a call throws, the remaining calls may be skipped and
  /// the exception is rethrown once no helper is still running one.
  virtual void for_each(std::size_t n,
                        const std::function<void(std::size_t)>& body) = 0;

 protected:
  ~FrontTeam() = default;
};

/// C(0:m,0:n) -= A(0:m,0:kb) * B(0:kb,0:n), all column-major with leading
/// dimensions lda/ldb/ldc. Cache-tiled with a SIMD register tile, one C
/// element per vector lane; per-element update order is increasing k
/// (see header comment). Runs the widest of schur_kernels().
void schur_update(index_t m, index_t n, index_t kb, const double* a,
                  index_t lda, const double* b, index_t ldb, double* c,
                  index_t ldc);

/// One vector width of the tiled kernels: schur_update and the two solve
/// kernels, rhs_update and rhs_row. "sse2" (16-byte vectors, the
/// baseline x86-64 build; "generic" on other CPUs), "avx2" (32-byte) or
/// "avx512f" (64-byte). Every width computes the same bits.
struct SchurKernel {
  using Fn = void (*)(index_t m, index_t n, index_t kb, const double* a,
                      index_t lda, const double* b, index_t ldb, double* c,
                      index_t ldc);
  using RhsUpdateFn = void (*)(index_t m, index_t n, index_t kb,
                               const double* a, index_t lda, const double* b,
                               index_t bk, index_t bj, double* c,
                               index_t ldc);
  using RhsRowFn = void (*)(index_t k, index_t n, const double* w, index_t wt,
                            const double* x, index_t ldx, double* y,
                            const double* pivot);
  const char* name;
  Fn run;
  RhsUpdateFn rhs_update;
  RhsRowFn rhs_row;
};

/// The widths this CPU runs, narrowest first; the last is the one
/// schur_update, rhs_update and rhs_row pick. A seam for tests and
/// benches, not an option.
std::span<const SchurKernel> schur_kernels();

/// Blocked right-looking partial LU with row pivoting among the
/// fully-summed rows. Semantics (and bits) of partial_lu_reference, with
/// or without a team: trailing updates of at least kShareMinFlops go to
/// `team` as column blocks, smaller ones (and all without a team) run
/// as one call on the calling thread.
PartialFactorResult partial_lu_blocked(FrontView front, index_t npiv,
                                       FrontTeam* team = nullptr);

/// Blocked partial LDLt (no pivoting, full-square storage kept numerically
/// symmetric). Semantics (and bits) of partial_ldlt_reference; `team` as
/// for partial_lu_blocked.
PartialFactorResult partial_ldlt_blocked(FrontView front, index_t npiv,
                                         FrontTeam* team = nullptr);

/// Smallest trailing update (2·m²·panel-width flops, m = trailing order)
/// the blocked kernels hand to a team: about 0.2 ms of single-core work
/// with the AVX-512 tile, far above the cost of waking a helper.
inline constexpr double kShareMinFlops = 4.0e6;

/// The pre-blocking scalar kernels, verbatim: the bit-exactness baseline
/// of tests/numeric_kernels_test.cpp and the "before" side of
/// bench_numeric's kernel sweep.
PartialFactorResult partial_lu_reference(FrontView front, index_t npiv);
PartialFactorResult partial_ldlt_reference(FrontView front, index_t npiv);

// ---- RHS-panel kernels (solve phase) ---------------------------------------
//
// The solve keeps its working panels RHS-interleaved: row-major, the k
// values of one row contiguous, so every elimination step is a vector
// operation across right-hand sides, one lane per panel element. Both
// kernels keep the factor kernels' discipline: each lane's update chain
// is the scalar loop's chain, `c = c - w*x` one product at a time in
// increasing pivot/row order, and tiling only reorders work across
// lanes and rows, never within one chain. The solve drivers rely on
// this to keep every sweep bitwise equal to the scalar single-RHS
// reference. Lane counts that are not a multiple of the vector width
// run their tail on the narrower widths, down to single doubles.

/// C(0:m,0:n) -= A(0:m,0:kb) · B(0:kb,0:n): schur_update's register tile
/// with the B operand read through two strides, B(t, j) at
/// b[t·bk + j·bj], so either orientation of a factor block serves as B.
/// A and C are column-major (leading dimensions lda/ldc), one C element
/// per lane along m. On an RHS-interleaved panel m is the number of
/// right-hand sides and the lanes run across them; a one-column panel
/// (n = 1, where both layouts coincide) may put the front rows on the
/// lanes instead. Per-element products in increasing t.
void rhs_update(index_t m, index_t n, index_t kb, const double* a,
                index_t lda, const double* b, index_t bk, index_t bj,
                double* c, index_t ldc);

/// One sequential substitution row over k lanes:
///   y(0:k) <- (y - Σ_{t<n} w[t·wt] · x(t, 0:k)) / *pivot,
/// x(t, c) at x[t·ldx + c], the products subtracted one at a time in
/// increasing t, then the divide (skipped when pivot is null). The
/// back-substitution runs one call per pivot row, bottom up.
void rhs_row(index_t k, index_t n, const double* w, index_t wt,
             const double* x, index_t ldx, double* y, const double* pivot);

}  // namespace memfront
