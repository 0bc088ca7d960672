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
/// (a CB, a scratch buffer, or a DenseMatrix's vector).
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

/// One vector width of schur_update: "sse2" (16-byte vectors, the
/// baseline x86-64 build; "generic" on other CPUs), "avx2" (32-byte) or
/// "avx512f" (64-byte). Every width computes the same bits.
struct SchurKernel {
  using Fn = void (*)(index_t m, index_t n, index_t kb, const double* a,
                      index_t lda, const double* b, index_t ldb, double* c,
                      index_t ldc);
  const char* name;
  Fn run;
};

/// The widths this CPU runs, narrowest first; the last is the one
/// schur_update picks. A seam for tests and benches, not an option.
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
// Triangular solves and rank-k updates over n x k right-hand-side panels
// (column-major, leading dimension ldb/ldc). The bit-exactness discipline
// of the factor kernels applies: every panel element's update chain is
// the scalar loop's chain — products subtracted one at a time in
// increasing pivot/row order — and blocking only reorders work across
// elements (different rows, different RHS columns), never within one
// element's chain. The solve drivers rely on this to keep the blocked
// multi-RHS sweep bitwise equal to the scalar single-RHS reference.

/// B(0:n,0:k) <- L^-1 B for a unit-lower-triangular L (strictly-below-
/// diagonal entries of an n x n column-major block with leading dimension
/// ldl; the diagonal is implicit 1 and never read). Forward order: for
/// each column, products subtracted in increasing pivot j.
void rhs_trsm_lower_unit(index_t n, index_t k, const double* l, index_t ldl,
                         double* b, index_t ldb);

/// B(0:n,0:k) <- U^-1 B for an upper-triangular U (on-and-above-diagonal
/// entries, non-unit diagonal). Backward order: row j subtracts products
/// for t = j+1..n-1 in increasing t, then divides by U(j,j).
void rhs_trsm_upper(index_t n, index_t k, const double* u, index_t ldu,
                    double* b, index_t ldb);

/// B(0:n,0:k) <- L^-T B for the unit-lower L above (the LDLt back-solve).
/// Backward order: row j subtracts L(t,j) * B(t,:) for t = j+1..n-1 in
/// increasing t; no divide (unit diagonal).
void rhs_trsm_lower_trans_unit(index_t n, index_t k, const double* l,
                               index_t ldl, double* b, index_t ldb);

/// C(0:m,0:n) -= A^T(0:m,0:kb) * B(0:kb,0:n) where A is stored kb x m
/// column-major (so A^T rows are A's columns, contiguous dot products).
/// Per-element products in increasing kb index, like schur_update.
void rhs_gemm_at_sub(index_t m, index_t n, index_t kb, const double* a,
                     index_t lda, const double* b, index_t ldb, double* c,
                     index_t ldc);

}  // namespace memfront
