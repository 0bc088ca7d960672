#include "memfront/frontal/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"

namespace memfront {
namespace {

// Tile sizes of the trailing update. The panel width bounds the k extent
// of every GEMM call; the row/column tiles keep the working set of one
// tile pass (A block + B block) inside L2 without packing.
constexpr index_t kPanelWidth = 48;
constexpr index_t kRowTile = 128;
constexpr index_t kColTile = 240;
// Columns of one register tile.
constexpr index_t kMicroCols = 4;
// Column-block width of a shared trailing update. A multiple of the
// register tile's width, so a block's tiles are exactly the single
// call's (see the header comment).
constexpr index_t kShareCols = 32;
static_assert(kShareCols % kMicroCols == 0 && kColTile % kMicroCols == 0);

inline std::size_t stride(index_t i, index_t ld) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
}

// Vector types of the register tile (GCC/Clang vector extensions), one C
// element per lane. Plain typedefs: GCC drops vector_size from an alias
// template without a word, hence the size check.
typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));
static_assert(sizeof(Vec2) == 16 && sizeof(Vec4) == 32 && sizeof(Vec8) == 64);

/// Lanes of one V; plain double is the one-lane case.
template <typename V>
constexpr index_t kLanes = sizeof(V) / sizeof(double);

/// Rows of a schur_update register tile: two vectors of V.
template <typename V>
constexpr index_t kTileRows = 2 * kLanes<V>;

/// The next narrower type: an RHS kernel's lane tail runs on it, down to
/// plain doubles.
template <typename V>
struct Narrower;
template <>
struct Narrower<Vec8> {
  using type = Vec4;
};
template <>
struct Narrower<Vec4> {
  using type = Vec2;
};
template <>
struct Narrower<Vec2> {
  using type = double;
};

// The register tile below is straight-line code over its NV vectors
// from the start: recursive always-inline templates and if-constexpr
// chains instead of loops, with every accumulator access written on the
// array itself. (A loop over the vectors, unrolled late, or a helper
// taking an accumulator's address, schedules differently; this way
// schur_update compiles to the code it had before the tile took NV as a
// parameter.)

/// v[0:NV] <- the NV vectors of V at p.
template <typename V, index_t NV, index_t I = 0>
[[gnu::always_inline]] inline void load_vecs(V (&v)[NV], const double* p) {
  if constexpr (I < NV) {
    std::memcpy(&v[I], p + I * kLanes<V>, sizeof(V));
    load_vecs<V, NV, I + 1>(v, p);
  }
}

/// acc[j][0:NV] -= x[0:NV] * w, w splat into every lane.
template <typename V, index_t NC, index_t NV, index_t I = 0>
[[gnu::always_inline]] inline void sub_scaled(V (&acc)[NC][NV], index_t j,
                                              const V (&x)[NV], double w) {
  if constexpr (I < NV) {
    acc[j][I] -= x[I] * w;
    sub_scaled<V, NC, NV, I + 1>(acc, j, x, w);
  }
}

/// Register tile: C(0:NV·L, 0:NC) -= A(0:NV·L, 0:kb) · B(0:kb, 0:NC), L
/// the lanes of V, A and C column-major, B(k, j) at b[k·bk + j·bj]. Each
/// lane is one C element with its own accumulator chain, `c = c - a*w`
/// in increasing k (a product, then a difference: contraction is off):
/// the scalar rank-1 loop's sequence. Loads and stores are unaligned,
/// since a front column starts anywhere.
template <typename V, index_t NV, index_t NC>
[[gnu::always_inline]] inline void micro_tile(index_t kb, const double* a,
                                              index_t lda, const double* b,
                                              index_t bk, index_t bj,
                                              double* c, index_t ldc) {
  static_assert(NV == 1 || NV == 2 || NV == 4 || NV == 8);
  constexpr index_t L = kLanes<V>;
  V acc[NC][NV];
#pragma GCC unroll 4
  for (index_t j = 0; j < NC; ++j) {
    std::memcpy(&acc[j][0], c + stride(j, ldc), sizeof(V));
    if constexpr (NV > 1)
      std::memcpy(&acc[j][1], c + stride(j, ldc) + L, sizeof(V));
    if constexpr (NV > 2) {
      std::memcpy(&acc[j][2], c + stride(j, ldc) + 2 * L, sizeof(V));
      std::memcpy(&acc[j][3], c + stride(j, ldc) + 3 * L, sizeof(V));
    }
    if constexpr (NV > 4) {
      std::memcpy(&acc[j][4], c + stride(j, ldc) + 4 * L, sizeof(V));
      std::memcpy(&acc[j][5], c + stride(j, ldc) + 5 * L, sizeof(V));
      std::memcpy(&acc[j][6], c + stride(j, ldc) + 6 * L, sizeof(V));
      std::memcpy(&acc[j][7], c + stride(j, ldc) + 7 * L, sizeof(V));
    }
  }
  const double* ak = a;
  for (index_t k = 0; k < kb; ++k, ak += lda) {
    V av[NV];
    load_vecs(av, ak);
#pragma GCC unroll 4
    for (index_t j = 0; j < NC; ++j) {
      const double w = b[stride(j, bj) + stride(k, bk)];  // splat
      sub_scaled(acc, j, av, w);
    }
  }
#pragma GCC unroll 4
  for (index_t j = 0; j < NC; ++j) {
    std::memcpy(c + stride(j, ldc), &acc[j][0], sizeof(V));
    if constexpr (NV > 1)
      std::memcpy(c + stride(j, ldc) + L, &acc[j][1], sizeof(V));
    if constexpr (NV > 2) {
      std::memcpy(c + stride(j, ldc) + 2 * L, &acc[j][2], sizeof(V));
      std::memcpy(c + stride(j, ldc) + 3 * L, &acc[j][3], sizeof(V));
    }
    if constexpr (NV > 4) {
      std::memcpy(c + stride(j, ldc) + 4 * L, &acc[j][4], sizeof(V));
      std::memcpy(c + stride(j, ldc) + 5 * L, &acc[j][5], sizeof(V));
      std::memcpy(c + stride(j, ldc) + 6 * L, &acc[j][6], sizeof(V));
      std::memcpy(c + stride(j, ldc) + 7 * L, &acc[j][7], sizeof(V));
    }
  }
}

/// Ragged-edge fallback (mr <= T rows, nr <= 4 columns) in scalars; same
/// accumulator discipline.
template <index_t T>
inline void micro_edge(index_t mr, index_t nr, index_t kb, const double* a,
                       index_t lda, const double* b, index_t ldb, double* c,
                       index_t ldc) {
  double acc[T][kMicroCols];
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) acc[i][j] = c[stride(j, ldc) + i];
  const double* ak = a;
  for (index_t k = 0; k < kb; ++k, ak += lda)
    for (index_t j = 0; j < nr; ++j) {
      const double w = b[stride(j, ldb) + k];
      for (index_t i = 0; i < mr; ++i) acc[i][j] -= ak[i] * w;
    }
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) c[stride(j, ldc) + i] = acc[i][j];
}

/// schur_update over vectors V: kColTile x kRowTile cache tiles, each cut
/// into register tiles of kTileRows<V> x kMicroCols.
template <typename V>
[[gnu::always_inline]] inline void schur_tiles(index_t m, index_t n,
                                               index_t kb, const double* a,
                                               index_t lda, const double* b,
                                               index_t ldb, double* c,
                                               index_t ldc) {
  constexpr index_t T = kTileRows<V>;
  if (m <= 0 || n <= 0 || kb <= 0) return;
  for (index_t jc = 0; jc < n; jc += kColTile) {
    const index_t nc = std::min(kColTile, n - jc);
    for (index_t ic = 0; ic < m; ic += kRowTile) {
      const index_t mc = std::min(kRowTile, m - ic);
      for (index_t j0 = 0; j0 < nc; j0 += kMicroCols) {
        const index_t nr = std::min(kMicroCols, nc - j0);
        const double* bt = b + stride(jc + j0, ldb);
        for (index_t i0 = 0; i0 < mc; i0 += T) {
          const index_t mr = std::min(T, mc - i0);
          const double* at = a + (ic + i0);
          double* ct = c + stride(jc + j0, ldc) + (ic + i0);
          if (mr == T && nr == kMicroCols)
            micro_tile<V, 2, kMicroCols>(kb, at, lda, bt, 1, ldb, ct, ldc);
          else
            micro_edge<T>(mr, nr, kb, at, lda, bt, ldb, ct, ldc);
        }
      }
    }
  }
}

/// One NC-column group of rhs_update over the lanes [i, m): chunks of NV
/// vectors of V while they fit, then one chunk of each halved count,
/// then the tail on the narrower types, down to single doubles. A lane
/// count of 4 thus runs whole 4-lane vectors even in the 8-lane kernel.
template <typename V, index_t NV, index_t NC>
[[gnu::always_inline]] inline void rhs_lanes(index_t m, index_t i, index_t kb,
                                             const double* a, index_t lda,
                                             const double* b, index_t bk,
                                             index_t bj, double* c,
                                             index_t ldc) {
  constexpr index_t L = kLanes<V>;
  for (; i + NV * L <= m; i += NV * L)
    micro_tile<V, NV, NC>(kb, a + i, lda, b, bk, bj, c + i, ldc);
  if constexpr (NV > 1)
    rhs_lanes<V, NV / 2, NC>(m, i, kb, a, lda, b, bk, bj, c, ldc);
  else if constexpr (L > 1)
    rhs_lanes<typename Narrower<V>::type, 1, NC>(m, i, kb, a, lda, b, bk, bj,
                                                 c, ldc);
}

/// rhs_update over vectors V: kMicroCols-column groups (one column at a
/// time for the ragged end), each running every lane chunk over the
/// whole depth. A one-column C runs eight vectors per tile instead, so
/// a single right-hand side still keeps eight chains going.
template <typename V>
[[gnu::always_inline]] inline void rhs_tiles(index_t m, index_t n, index_t kb,
                                             const double* a, index_t lda,
                                             const double* b, index_t bk,
                                             index_t bj, double* c,
                                             index_t ldc) {
  if (m <= 0 || n <= 0 || kb <= 0) return;
  if (n == 1) {
    rhs_lanes<V, 8, 1>(m, 0, kb, a, lda, b, bk, bj, c, ldc);
    return;
  }
  index_t j = 0;
  for (; j + kMicroCols <= n; j += kMicroCols)
    rhs_lanes<V, 2, kMicroCols>(m, 0, kb, a, lda, b + stride(j, bj), bk, bj,
                                c + stride(j, ldc), ldc);
  for (; j < n; ++j)
    rhs_lanes<V, 2, 1>(m, 0, kb, a, lda, b + stride(j, bj), bk, bj,
                       c + stride(j, ldc), ldc);
}

/// One chunk of rhs_row: NV vectors of V held across the whole t loop.
template <typename V, index_t NV>
[[gnu::always_inline]] inline void row_chunk(index_t n, const double* w,
                                             index_t wt, const double* x,
                                             index_t ldx, double* y,
                                             const double* pivot) {
  constexpr index_t L = kLanes<V>;
  V acc[NV];
#pragma GCC unroll 8
  for (index_t v = 0; v < NV; ++v)
    std::memcpy(&acc[v], y + v * L, sizeof(V));
  for (index_t t = 0; t < n; ++t) {
    const double s = w[stride(t, wt)];  // splat
    const double* xt = x + stride(t, ldx);
#pragma GCC unroll 8
    for (index_t v = 0; v < NV; ++v) {
      V xv;
      std::memcpy(&xv, xt + v * L, sizeof(V));
      acc[v] -= s * xv;
    }
  }
  if (pivot != nullptr) {
    const double d = *pivot;
#pragma GCC unroll 8
    for (index_t v = 0; v < NV; ++v) acc[v] /= d;
  }
#pragma GCC unroll 8
  for (index_t v = 0; v < NV; ++v)
    std::memcpy(y + v * L, &acc[v], sizeof(V));
}

/// rhs_row over the lanes [i, k), chunked like rhs_lanes.
template <typename V, index_t NV>
[[gnu::always_inline]] inline void row_lanes(index_t k, index_t i, index_t n,
                                             const double* w, index_t wt,
                                             const double* x, index_t ldx,
                                             double* y, const double* pivot) {
  constexpr index_t L = kLanes<V>;
  for (; i + NV * L <= k; i += NV * L)
    row_chunk<V, NV>(n, w, wt, x + i, ldx, y + i, pivot);
  if constexpr (NV > 1)
    row_lanes<V, NV / 2>(k, i, n, w, wt, x, ldx, y, pivot);
  else if constexpr (L > 1)
    row_lanes<typename Narrower<V>::type, 1>(k, i, n, w, wt, x, ldx, y,
                                             pivot);
}

// One instantiation per vector width; the wider two are compiled for
// their instruction sets and run only where the CPU has them.
void schur_update_v2(index_t m, index_t n, index_t kb, const double* a,
                     index_t lda, const double* b, index_t ldb, double* c,
                     index_t ldc) {
  schur_tiles<Vec2>(m, n, kb, a, lda, b, ldb, c, ldc);
}

void rhs_update_v2(index_t m, index_t n, index_t kb, const double* a,
                   index_t lda, const double* b, index_t bk, index_t bj,
                   double* c, index_t ldc) {
  rhs_tiles<Vec2>(m, n, kb, a, lda, b, bk, bj, c, ldc);
}

void rhs_row_v2(index_t k, index_t n, const double* w, index_t wt,
                const double* x, index_t ldx, double* y, const double* pivot) {
  row_lanes<Vec2, 8>(k, 0, n, w, wt, x, ldx, y, pivot);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void schur_update_v4(index_t m, index_t n, index_t kb,
                                             const double* a, index_t lda,
                                             const double* b, index_t ldb,
                                             double* c, index_t ldc) {
  schur_tiles<Vec4>(m, n, kb, a, lda, b, ldb, c, ldc);
}

[[gnu::target("avx2")]] void rhs_update_v4(index_t m, index_t n, index_t kb,
                                           const double* a, index_t lda,
                                           const double* b, index_t bk,
                                           index_t bj, double* c,
                                           index_t ldc) {
  rhs_tiles<Vec4>(m, n, kb, a, lda, b, bk, bj, c, ldc);
}

[[gnu::target("avx2")]] void rhs_row_v4(index_t k, index_t n, const double* w,
                                        index_t wt, const double* x,
                                        index_t ldx, double* y,
                                        const double* pivot) {
  row_lanes<Vec4, 8>(k, 0, n, w, wt, x, ldx, y, pivot);
}

[[gnu::target("avx512f")]] void schur_update_v8(
    index_t m, index_t n, index_t kb, const double* a, index_t lda,
    const double* b, index_t ldb, double* c, index_t ldc) {
  schur_tiles<Vec8>(m, n, kb, a, lda, b, ldb, c, ldc);
}

[[gnu::target("avx512f")]] void rhs_update_v8(index_t m, index_t n, index_t kb,
                                              const double* a, index_t lda,
                                              const double* b, index_t bk,
                                              index_t bj, double* c,
                                              index_t ldc) {
  rhs_tiles<Vec8>(m, n, kb, a, lda, b, bk, bj, c, ldc);
}

[[gnu::target("avx512f")]] void rhs_row_v8(index_t k, index_t n,
                                           const double* w, index_t wt,
                                           const double* x, index_t ldx,
                                           double* y, const double* pivot) {
  row_lanes<Vec8, 8>(k, 0, n, w, wt, x, ldx, y, pivot);
}
#endif

/// The widths this CPU can run, narrowest first.
std::vector<SchurKernel> host_schur_kernels() {
#if defined(__x86_64__) || defined(__i386__)
  std::vector<SchurKernel> kernels{
      {"sse2", schur_update_v2, rhs_update_v2, rhs_row_v2}};
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2"))
    kernels.push_back({"avx2", schur_update_v4, rhs_update_v4, rhs_row_v4});
  if (__builtin_cpu_supports("avx512f"))
    kernels.push_back(
        {"avx512f", schur_update_v8, rhs_update_v8, rhs_row_v8});
  return kernels;
#else
  return {{"generic", schur_update_v2, rhs_update_v2, rhs_row_v2}};
#endif
}

/// Static pivoting: perturb a numerically tiny pivot instead of delaying
/// it. std::signbit keeps the sign of -0.0 (a plain `d >= 0` test would
/// flip it to +kPivotFloor).
inline double perturbed_pivot(double d) {
  return std::signbit(d) ? -kPivotFloor : kPivotFloor;
}

/// Pivot bookkeeping shared by all four kernels: exact-zero detection
/// (before perturbation), static perturbation, and max-|pivot| tracking.
/// Besides the perturbation itself (unchanged semantics) this is
/// comparisons and counters only, so the kernels stay bit-identical.
inline double settle_pivot(double d, PartialFactorResult& result) {
  if (d == 0.0) ++result.exact_zero_pivots;
  if (std::abs(d) < kPivotFloor) {
    d = perturbed_pivot(d);
    ++result.perturbations;
  }
  const double mag = std::abs(d);
  if (mag > result.max_pivot_abs) result.max_pivot_abs = mag;
  return d;
}

/// Runs update(c0, c1) over the trailing columns [k1, n) of panel
/// [k0, k1): as one call, or, for an update of at least kShareMinFlops
/// with a team, as kShareCols-wide blocks handed to the team.
template <typename Update>
void trailing_update(FrontTeam* team, index_t n, index_t k0, index_t k1,
                     const Update& update) {
  const index_t m = n - k1;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(m) * static_cast<double>(k1 - k0);
  if (team == nullptr || flops < kShareMinFlops) {
    update(k1, n);
    return;
  }
  const index_t blocks = (m + kShareCols - 1) / kShareCols;
  team->for_each(static_cast<std::size_t>(blocks), [&](std::size_t b) {
    const index_t c0 = k1 + static_cast<index_t>(b) * kShareCols;
    update(c0, std::min(c0 + kShareCols, n));
  });
}

}  // namespace

std::span<const SchurKernel> schur_kernels() {
  static const std::vector<SchurKernel> kernels = host_schur_kernels();
  return kernels;
}

void schur_update(index_t m, index_t n, index_t kb, const double* a,
                  index_t lda, const double* b, index_t ldb, double* c,
                  index_t ldc) {
  static const SchurKernel::Fn widest = schur_kernels().back().run;
  widest(m, n, kb, a, lda, b, ldb, c, ldc);
}

void rhs_update(index_t m, index_t n, index_t kb, const double* a,
                index_t lda, const double* b, index_t bk, index_t bj,
                double* c, index_t ldc) {
  static const SchurKernel::RhsUpdateFn widest =
      schur_kernels().back().rhs_update;
  widest(m, n, kb, a, lda, b, bk, bj, c, ldc);
}

void rhs_row(index_t k, index_t n, const double* w, index_t wt,
             const double* x, index_t ldx, double* y, const double* pivot) {
  static const SchurKernel::RhsRowFn widest = schur_kernels().back().rhs_row;
  widest(k, n, w, wt, x, ldx, y, pivot);
}

PartialFactorResult partial_lu_blocked(FrontView f, index_t npiv,
                                       FrontTeam* team) {
  const index_t n = f.n;
  check(npiv >= 0 && npiv <= n, "partial_lu: bad npiv");
  check(f.ld >= n, "partial_lu: bad leading dimension");
  PartialFactorResult result;
  result.pivot_rows.reserve(static_cast<std::size_t>(npiv));

  for (index_t k0 = 0; k0 < npiv; k0 += kPanelWidth) {
    const index_t k1 = std::min<index_t>(k0 + kPanelWidth, npiv);
    {
      MEMFRONT_SPAN("panel", k0);
      // Panel factorization: scalar right-looking on columns [k0,k1), full
      // rows, interchanges applied panel-locally. Column k is fully updated
      // (earlier panels via their trailing updates, this panel right here)
      // when its pivot search runs, so the search sees the scalar values.
      for (index_t k = k0; k < k1; ++k) {
        index_t piv = k;
        double best = std::abs(f.at(k, k));
        for (index_t r = k + 1; r < npiv; ++r) {
          const double v = std::abs(f.at(r, k));
          if (v > best) {
            best = v;
            piv = r;
          }
        }
        if (piv != k)
          for (index_t c = k0; c < k1; ++c)
            std::swap(f.at(k, c), f.at(piv, c));
        result.pivot_rows.push_back(piv);
        const double d = settle_pivot(f.at(k, k), result);
        f.at(k, k) = d;
        double* lcol = f.col(k);
        for (index_t r = k + 1; r < n; ++r) lcol[r] /= d;
        for (index_t c = k + 1; c < k1; ++c) {
          const double ukc = f.at(k, c);
          double* col = f.col(c);
          for (index_t r = k + 1; r < n; ++r) col[r] -= lcol[r] * ukc;
        }
      }
      // Bring the rest of the front in line with the interchanges, oldest
      // pivot first (row contents just move; values are untouched).
      for (index_t k = k0; k < k1; ++k) {
        const index_t piv = result.pivot_rows[static_cast<std::size_t>(k)];
        if (piv == k) continue;
        for (index_t c = 0; c < k0; ++c) std::swap(f.at(k, c), f.at(piv, c));
        for (index_t c = k1; c < n; ++c) std::swap(f.at(k, c), f.at(piv, c));
      }
    }
    if (k1 == n) continue;
    trailing_update(team, n, k0, k1, [&](index_t c0, index_t c1) {
      {
        MEMFRONT_SPAN("trsm", k0);
        // U12 rows of this panel: unit-lower triangular solve. Each
        // element (r,c) subtracts its products for k = k0..r-1 in order —
        // the scalar loop's exact sequence for those rows.
        for (index_t c = c0; c < c1; ++c) {
          double* col = f.col(c);
          for (index_t r = k0 + 1; r < k1; ++r) {
            double s = col[r];
            for (index_t k = k0; k < r; ++k) s -= f.at(r, k) * col[k];
            col[r] = s;
          }
        }
      }
      // Trailing Schur update: rows >= k1 of columns [c0,c1) against this
      // panel's L and U.
      MEMFRONT_SPAN("schur", k0);
      schur_update(n - k1, c1 - c0, k1 - k0, &f.at(k1, k0), f.ld,
                   &f.at(k0, c0), f.ld, &f.at(k1, c0), f.ld);
    });
  }
  return result;
}

PartialFactorResult partial_ldlt_blocked(FrontView f, index_t npiv,
                                         FrontTeam* team) {
  const index_t n = f.n;
  check(npiv >= 0 && npiv <= n, "partial_ldlt: bad npiv");
  check(f.ld >= n, "partial_ldlt: bad leading dimension");
  PartialFactorResult result;
  result.pivot_rows.reserve(static_cast<std::size_t>(npiv));

  for (index_t k0 = 0; k0 < npiv; k0 += kPanelWidth) {
    const index_t k1 = std::min<index_t>(k0 + kPanelWidth, npiv);
    {
      MEMFRONT_SPAN("panel", k0);
      for (index_t k = k0; k < k1; ++k) {
        result.pivot_rows.push_back(k);  // no pivoting
        const double d = settle_pivot(f.at(k, k), result);
        f.at(k, k) = d;
        double* lcol = f.col(k);
        for (index_t r = k + 1; r < n; ++r) lcol[r] /= d;
        for (index_t c = k + 1; c < k1; ++c) {
          const double lck = f.at(c, k);
          const double w = lck * d;
          double* col = f.col(c);
          for (index_t r = k + 1; r < n; ++r) col[r] -= lcol[r] * w;
        }
        // Panel part of the mirrored pivot row (Lᵀ view).
        for (index_t r = k + 1; r < k1; ++r) f.at(k, r) = f.at(r, k) * d;
      }
    }
    if (k1 == n) continue;
    trailing_update(team, n, k0, k1, [&](index_t c0, index_t c1) {
      {
        MEMFRONT_SPAN("trsm", k0);
        // Trailing part of the mirrored pivot rows. These are exactly the
        // scalar loop's `w = l(c,k) * d` values, written where the scalar
        // mirror would land them — so the block below IS the GEMM's B
        // operand and the trailing columns' panel rows are final without
        // any update (the scalar loop's updates to those rows are dead
        // stores: the mirror at step r overwrites row r before anything
        // reads it).
        for (index_t k = k0; k < k1; ++k) {
          const double d = f.at(k, k);
          const double* lcol = f.col(k);
          for (index_t c = c0; c < c1; ++c) f.at(k, c) = lcol[c] * d;
        }
      }
      MEMFRONT_SPAN("schur", k0);
      schur_update(n - k1, c1 - c0, k1 - k0, &f.at(k1, k0), f.ld,
                   &f.at(k0, c0), f.ld, &f.at(k1, c0), f.ld);
    });
  }
  return result;
}

// ---- pre-blocking scalar kernels (bit-exactness baseline) ------------------
//
// The column-at-a-time kernels this layer replaced, with two shared
// changes: the static-pivot perturbation uses std::signbit (the old
// `d >= 0` test mapped -0.0 to +kPivotFloor), and the old `== 0.0`
// column-skip shortcuts are dropped so the arithmetic matches the
// blocked kernels *unconditionally* — with the skips, a zero U entry
// against a non-finite or -0.0 operand (e.g. an overflowed L column
// after a perturbed pivot) would leave different bits than the blocked
// path's explicit `c -= a * 0.0`. On finite inputs without signed
// zeros the skip is unobservable, so these remain the scalar baseline.

PartialFactorResult partial_lu_reference(FrontView f, index_t npiv) {
  const index_t n = f.n;
  check(npiv >= 0 && npiv <= n, "partial_lu: bad npiv");
  PartialFactorResult result;
  result.pivot_rows.reserve(static_cast<std::size_t>(npiv));

  for (index_t k = 0; k < npiv; ++k) {
    // Pivot search restricted to the fully-summed rows [k, npiv).
    index_t piv = k;
    double best = std::abs(f.at(k, k));
    for (index_t r = k + 1; r < npiv; ++r) {
      const double v = std::abs(f.at(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (piv != k)
      for (index_t c = 0; c < n; ++c) std::swap(f.at(k, c), f.at(piv, c));
    result.pivot_rows.push_back(piv);
    const double d = settle_pivot(f.at(k, k), result);
    f.at(k, k) = d;
    // Scale the column (L part), then rank-1 update the trailing block.
    double* lcol = f.col(k);
    for (index_t r = k + 1; r < n; ++r) lcol[r] /= d;
    for (index_t c = k + 1; c < n; ++c) {
      const double ukc = f.at(k, c);
      double* col = f.col(c);
      for (index_t r = k + 1; r < n; ++r) col[r] -= lcol[r] * ukc;
    }
  }
  return result;
}

PartialFactorResult partial_ldlt_reference(FrontView f, index_t npiv) {
  const index_t n = f.n;
  check(npiv >= 0 && npiv <= n, "partial_ldlt: bad npiv");
  PartialFactorResult result;
  result.pivot_rows.reserve(static_cast<std::size_t>(npiv));

  for (index_t k = 0; k < npiv; ++k) {
    result.pivot_rows.push_back(k);  // no pivoting
    const double d = settle_pivot(f.at(k, k), result);
    f.at(k, k) = d;
    double* lcol = f.col(k);
    for (index_t r = k + 1; r < n; ++r) lcol[r] /= d;
    // Symmetric rank-1 update of the trailing block, kept full so the
    // storage stays numerically symmetric.
    for (index_t c = k + 1; c < n; ++c) {
      const double lck = f.at(c, k);
      const double w = lck * d;
      double* col = f.col(c);
      for (index_t r = k + 1; r < n; ++r) col[r] -= lcol[r] * w;
    }
    // Mirror the scaled column into the pivot row (Lᵀ view) for readers
    // that index the upper triangle.
    for (index_t r = k + 1; r < n; ++r) f.at(k, r) = f.at(r, k) * d;
  }
  return result;
}

}  // namespace memfront
