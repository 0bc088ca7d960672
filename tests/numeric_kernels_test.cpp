// Blocked frontal kernels vs the pre-blocking scalar references: the
// blocked panel/TRSM/GEMM pipeline must reproduce the scalar kernels bit
// for bit (pivot sequences AND every stored value), alone and with its
// large trailing updates split over a team of threads; every SIMD width
// of schur_update against the rank-1 chain; every width of the two
// solve kernels (rhs_update, rhs_row) against plain scalar loops; the
// signbit perturbation fix and the mapped extend-add scatter.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "memfront/frontal/extend_add.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/support/rng.hpp"

namespace memfront {
namespace {

std::vector<double> random_front(index_t n, std::uint64_t seed,
                                 bool dominant) {
  Rng rng(seed);
  std::vector<double> data(static_cast<std::size_t>(n) * n);
  for (double& v : data) v = rng.real(-1.0, 1.0);
  if (dominant) {
    for (index_t r = 0; r < n; ++r) {
      double sum = 0.0;
      for (index_t c = 0; c < n; ++c)
        sum += std::abs(data[static_cast<std::size_t>(c) * n + r]);
      data[static_cast<std::size_t>(r) * n + r] = sum + 1.0;
    }
  }
  return data;
}

std::vector<double> random_symmetric(index_t n, std::uint64_t seed) {
  std::vector<double> a = random_front(n, seed, true);
  std::vector<double> s(a.size());
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r)
      s[static_cast<std::size_t>(c) * n + r] =
          0.5 * (a[static_cast<std::size_t>(c) * n + r] +
                 a[static_cast<std::size_t>(r) * n + c]);
  return s;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, index_t n,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) return;
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r) {
      const std::size_t k = static_cast<std::size_t>(c) * n + r;
      ASSERT_EQ(a[k], b[k]) << what << ": first differing entry (" << r
                            << "," << c << ")";
    }
  FAIL() << what << ": bit pattern differs (signed zero or NaN)";
}

/// A team that runs the blocks in reverse order, dealt round-robin to 3
/// threads, so every block lands on a thread other than the caller's and
/// neighbouring blocks run concurrently.
class ReverseThreadTeam final : public FrontTeam {
 public:
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& body) override {
    ++calls;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 3; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t k = t; k < n; k += 3) {
          body(n - 1 - k);
          blocks.fetch_add(1, std::memory_order_relaxed);
        }
      });
    for (std::thread& th : threads) th.join();
  }

  std::size_t calls = 0;
  std::atomic<std::size_t> blocks{0};
};

void check_lu_bitwise(index_t n, index_t npiv, std::uint64_t seed,
                      bool dominant, FrontTeam* team = nullptr) {
  std::vector<double> blocked = random_front(n, seed, dominant);
  std::vector<double> reference = blocked;
  const PartialFactorResult br =
      partial_lu_blocked(FrontView{blocked.data(), n, n}, npiv, team);
  const PartialFactorResult rr =
      partial_lu_reference(FrontView{reference.data(), n, n}, npiv);
  EXPECT_EQ(br.pivot_rows, rr.pivot_rows)
      << "n=" << n << " npiv=" << npiv << " seed=" << seed;
  EXPECT_EQ(br.perturbations, rr.perturbations);
  expect_bitwise_equal(blocked, reference, n, "partial_lu");
}

void check_ldlt_bitwise(index_t n, index_t npiv, std::uint64_t seed,
                        FrontTeam* team = nullptr) {
  std::vector<double> blocked = random_symmetric(n, seed);
  std::vector<double> reference = blocked;
  const PartialFactorResult br =
      partial_ldlt_blocked(FrontView{blocked.data(), n, n}, npiv, team);
  const PartialFactorResult rr =
      partial_ldlt_reference(FrontView{reference.data(), n, n}, npiv);
  EXPECT_EQ(br.pivot_rows, rr.pivot_rows)
      << "n=" << n << " npiv=" << npiv << " seed=" << seed;
  EXPECT_EQ(br.perturbations, rr.perturbations);
  expect_bitwise_equal(blocked, reference, n, "partial_ldlt");
}

TEST(NumericKernels, BlockedLuBitIdenticalToReference) {
  // Sizes straddling every tile boundary: inside one panel, exactly one
  // panel, several panels, microkernel edge remainders.
  check_lu_bitwise(1, 1, 1, true);
  check_lu_bitwise(5, 3, 2, true);
  check_lu_bitwise(16, 9, 3, true);
  check_lu_bitwise(48, 48, 4, true);
  check_lu_bitwise(49, 30, 5, true);
  check_lu_bitwise(96, 64, 6, true);
  check_lu_bitwise(130, 130, 7, true);
  check_lu_bitwise(150, 70, 8, true);
  check_lu_bitwise(257, 129, 9, true);
}

TEST(NumericKernels, BlockedLuBitIdenticalUnderHeavyPivoting) {
  // Non-dominant fronts: the pivot search actually moves rows, so the
  // deferred interchange application is exercised for real.
  check_lu_bitwise(32, 20, 11, false);
  check_lu_bitwise(97, 60, 12, false);
  check_lu_bitwise(144, 144, 13, false);
  check_lu_bitwise(200, 101, 14, false);
}

TEST(NumericKernels, BlockedLdltBitIdenticalToReference) {
  check_ldlt_bitwise(1, 1, 21);
  check_ldlt_bitwise(7, 4, 22);
  check_ldlt_bitwise(48, 48, 23);
  check_ldlt_bitwise(50, 29, 24);
  check_ldlt_bitwise(96, 50, 25);
  check_ldlt_bitwise(131, 131, 26);
  check_ldlt_bitwise(190, 95, 27);
}

TEST(NumericKernels, SharedTrailingUpdatesStayBitIdentical) {
  // Sizes whose first trailing updates exceed kShareMinFlops: the
  // column blocks run on the team's threads, in reverse order, and the
  // result must still be the scalar reference bit for bit. 517 and 47
  // leave ragged last blocks and microkernel edges.
  struct LuCase {
    index_t n, npiv;
    std::uint64_t seed;
    bool dominant;
  };
  for (const LuCase c : {LuCase{300, 300, 31, true},
                         LuCase{517, 260, 32, true},
                         LuCase{400, 47, 33, false}}) {
    ReverseThreadTeam team;
    check_lu_bitwise(c.n, c.npiv, c.seed, c.dominant, &team);
    EXPECT_GT(team.calls, 0u) << "LU n=" << c.n << " npiv=" << c.npiv;
    EXPECT_GT(team.blocks.load(), team.calls) << "LU n=" << c.n;
  }
  const std::pair<index_t, index_t> ldlt_cases[] = {{300, 300}, {517, 200}};
  for (const auto& [n, npiv] : ldlt_cases) {
    ReverseThreadTeam team;
    check_ldlt_bitwise(n, npiv, 34, &team);
    EXPECT_GT(team.calls, 0u) << "LDLt n=" << n << " npiv=" << npiv;
    EXPECT_GT(team.blocks.load(), team.calls) << "LDLt n=" << n;
  }
}

TEST(NumericKernels, SmallUpdatesNeverReachTheTeam) {
  // Below kShareMinFlops the kernels keep the single unsplit call.
  ReverseThreadTeam team;
  check_lu_bitwise(150, 70, 35, true, &team);
  check_ldlt_bitwise(190, 95, 36, &team);
  EXPECT_EQ(team.calls, 0u);
}

/// Random operand with -0.0 and subnormals sprinkled in.
std::vector<double> schur_operand(std::size_t size, Rng& rng) {
  std::vector<double> v(size);
  for (std::size_t i = 0; i < size; ++i) {
    v[i] = rng.real(-1.0, 1.0);
    if (i % 7 == 2) v[i] = -0.0;
    if (i % 31 == 5) v[i] *= 1e-310;  // subnormal (slow arithmetic: sparse)
  }
  return v;
}

/// C -= A·B through `run` must equal the k-ordered sequence of rank-1
/// subtractions bit for bit, and leave the padding rows of C alone.
void check_schur(SchurKernel::Fn run, index_t m, index_t n, index_t kb,
                 std::uint64_t seed) {
  // Leading dimensions past the operand rows: odd, so columns start at
  // every alignment.
  const index_t lda = m + 3, ldb = kb + 1, ldc = m + 5;
  Rng rng(seed);
  const std::vector<double> a =
      schur_operand(static_cast<std::size_t>(lda) * kb, rng);
  const std::vector<double> b =
      schur_operand(static_cast<std::size_t>(ldb) * n, rng);
  std::vector<double> c =
      schur_operand(static_cast<std::size_t>(ldc) * n, rng);
  std::vector<double> expected = c;
  for (index_t k = 0; k < kb; ++k)
    for (index_t j = 0; j < n; ++j) {
      const double w = b[static_cast<std::size_t>(j) * ldb + k];
      for (index_t i = 0; i < m; ++i)
        expected[static_cast<std::size_t>(j) * ldc + i] -=
            a[static_cast<std::size_t>(k) * lda + i] * w;
    }
  run(m, n, kb, a.data(), lda, b.data(), ldb, c.data(), ldc);
  // No memcmp on an empty C (n = 0): its data() may be null.
  ASSERT_TRUE(c.empty() || std::memcmp(c.data(), expected.data(),
                                       c.size() * sizeof(double)) == 0)
      << "m=" << m << " n=" << n << " kb=" << kb;
}

TEST(NumericKernels, SchurUpdateMatchesScalarRankUpdates) {
  // C -= A·B must equal the k-ordered sequence of rank-1 subtractions
  // bit for bit (that equivalence is what makes the blocked kernels
  // exact drop-ins), at every vector width this CPU runs, not only the
  // one schur_update picks. Row counts straddle every register tile (4,
  // 8 and 16 rows) and the 128-row cache tile; column counts straddle
  // the 4-column tile, the 32-column share block and the 240-column
  // cache tile.
  const std::span<const SchurKernel> kernels = schur_kernels();
  ASSERT_FALSE(kernels.empty());
  std::vector<std::pair<std::string, SchurKernel::Fn>> runs;
  for (const SchurKernel& k : kernels) runs.emplace_back(k.name, k.run);
  runs.emplace_back("schur_update", schur_update);
  std::vector<std::pair<index_t, index_t>> shapes;
  for (const index_t m : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 127,
                          128, 129, 240, 241})
    for (const index_t n : {0, 1, 5, 33}) shapes.emplace_back(m, n);
  for (const index_t n : {2, 3, 4, 31, 32, 128, 129, 240, 241})
    for (const index_t m : {1, 17, 33}) shapes.emplace_back(m, n);
  for (const index_t mn : {128, 129, 240, 241}) shapes.emplace_back(mn, mn);
  shapes.emplace_back(241, 129);
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    std::uint64_t seed = 0;
    for (const index_t kb : {1, 13, 48})
      for (const auto& [m, n] : shapes) {
        check_schur(run, m, n, kb, ++seed);
        if (HasFatalFailure()) return;
      }
  }
}

/// Operand with zeros of both signs, infinities of both signs and
/// subnormals sprinkled in (sparse, so most chains still carry finite
/// values past them).
std::vector<double> special_operand(std::size_t size, Rng& rng) {
  std::vector<double> v = schur_operand(size, rng);
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 11 == 4) v[i] = 0.0;
    if (i % 53 == 17) v[i] = inf;
    if (i % 59 == 29) v[i] = -inf;
  }
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Lane counts of the solve-kernel checks: every count up to two 8-lane
/// vectors plus one, then counts around and at the benchmark's 64.
const std::vector<index_t>& rhs_lane_counts() {
  static const std::vector<index_t> counts = [] {
    std::vector<index_t> c;
    for (index_t k = 1; k <= 17; ++k) c.push_back(k);
    for (const index_t k : {31, 33, 64}) c.push_back(k);
    return c;
  }();
  return counts;
}

/// C -= A·B through rhs_update `run`, with B read through (bk, bj), must
/// equal the plain t-ordered scalar loop bit for bit and leave C's
/// padding rows alone. `row_major_b` picks the orientation: B(t, j) at
/// b[t·ldb + j] (a factor block whose rows are contiguous) or at
/// b[j·ldb + t] (schur_update's column-major B).
void check_rhs_update(SchurKernel::RhsUpdateFn run, index_t m, index_t n,
                      index_t kb, bool row_major_b, bool special,
                      std::uint64_t seed) {
  const index_t lda = m + 3, ldc = m + 5;
  const index_t ldb = row_major_b ? n + 2 : kb + 1;
  const index_t bk = row_major_b ? ldb : 1;
  const index_t bj = row_major_b ? 1 : ldb;
  const std::size_t bsize = static_cast<std::size_t>(ldb) *
                            static_cast<std::size_t>(row_major_b ? kb : n);
  Rng rng(seed);
  const auto operand = [&](std::size_t size) {
    return special ? special_operand(size, rng) : schur_operand(size, rng);
  };
  const std::vector<double> a = operand(static_cast<std::size_t>(lda) * kb);
  const std::vector<double> b = operand(bsize);
  std::vector<double> c = operand(static_cast<std::size_t>(ldc) * n);
  std::vector<double> expected = c;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double& e = expected[static_cast<std::size_t>(j) * ldc + i];
      for (index_t t = 0; t < kb; ++t)
        e -= a[static_cast<std::size_t>(t) * lda + i] *
             b[static_cast<std::size_t>(t) * bk +
               static_cast<std::size_t>(j) * bj];
    }
  run(m, n, kb, a.data(), lda, b.data(), bk, bj, c.data(), ldc);
  ASSERT_TRUE(same_bits(c, expected))
      << "m=" << m << " n=" << n << " kb=" << kb
      << " row_major_b=" << row_major_b << " special=" << special;
}

TEST(NumericKernels, RhsUpdateMatchesScalarLoops) {
  // Every width of the solve's tile against the plain loop: lane counts
  // 1-17, 31, 33 and 64 (every lane tail of every width), front-row
  // counts that are not a multiple of the 4-column tile (and the
  // one-column path), depths from 1 to past the forward sweep's 48-row
  // blocks, both B orientations, and operands with signed zeros and
  // infinities.
  std::vector<std::pair<std::string, SchurKernel::RhsUpdateFn>> runs;
  for (const SchurKernel& k : schur_kernels())
    runs.emplace_back(k.name, k.rhs_update);
  runs.emplace_back("rhs_update", rhs_update);
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    std::uint64_t seed = 100;
    for (const index_t m : rhs_lane_counts())
      for (const index_t n : {1, 2, 3, 5, 7, 13})
        for (const index_t kb : {1, 13, 130})
          for (const bool row_major_b : {false, true})
            for (const bool special : {false, true}) {
              check_rhs_update(run, m, n, kb, row_major_b, special, ++seed);
              if (HasFatalFailure()) return;
            }
    // Empty extents touch nothing.
    check_rhs_update(run, 0, 3, 5, true, false, ++seed);
    check_rhs_update(run, 3, 0, 5, true, false, ++seed);
    check_rhs_update(run, 3, 2, 0, false, false, ++seed);
    if (HasFatalFailure()) return;
  }
}

/// y <- (y - Σ_t w[t·wt] · x(t, :)) / pivot through rhs_row `run` must
/// equal the plain loop bit for bit and leave the neighbouring row of y
/// alone. `strided_w` reads w with a stride (a factor row in a
/// column-major panel) instead of contiguously.
void check_rhs_row(SchurKernel::RhsRowFn run, index_t k, index_t n,
                   bool strided_w, bool divide, bool special,
                   std::uint64_t seed) {
  const index_t ldx = k + 3;
  const index_t wt = strided_w ? 7 : 1;
  Rng rng(seed);
  const auto operand = [&](std::size_t size) {
    return special ? special_operand(size, rng) : schur_operand(size, rng);
  };
  const std::vector<double> w =
      operand(static_cast<std::size_t>(wt) * static_cast<std::size_t>(n) + 1);
  const std::vector<double> x = operand(static_cast<std::size_t>(ldx) * n);
  std::vector<double> y = operand(static_cast<std::size_t>(k) + 2);
  // The divisor: a plain value, or -0.0 / +inf among the special ones.
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double pivot = !special          ? 0.75 - rng.real(0.0, 0.5)
                       : seed % 3 == 0   ? -0.0
                       : seed % 3 == 1   ? inf
                                         : -1.5;
  std::vector<double> expected = y;
  for (index_t c = 0; c < k; ++c) {
    double acc = expected[static_cast<std::size_t>(c)];
    for (index_t t = 0; t < n; ++t)
      acc -= w[static_cast<std::size_t>(t) * wt] *
             x[static_cast<std::size_t>(t) * ldx + c];
    expected[static_cast<std::size_t>(c)] = divide ? acc / pivot : acc;
  }
  run(k, n, w.data(), wt, x.data(), ldx, y.data(), divide ? &pivot : nullptr);
  ASSERT_TRUE(same_bits(y, expected))
      << "k=" << k << " n=" << n << " strided_w=" << strided_w
      << " divide=" << divide << " special=" << special;
}

TEST(NumericKernels, RhsRowMatchesScalarLoops) {
  // The back-substitution row at every width: the same lane counts, no
  // products up to more than one 48-row block of them, contiguous and
  // strided weights, with and without the LU divide (by -0.0 and +inf
  // too), and operands with signed zeros and infinities.
  std::vector<std::pair<std::string, SchurKernel::RhsRowFn>> runs;
  for (const SchurKernel& k : schur_kernels())
    runs.emplace_back(k.name, k.rhs_row);
  runs.emplace_back("rhs_row", rhs_row);
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    std::uint64_t seed = 200;
    for (const index_t k : rhs_lane_counts())
      for (const index_t n : {0, 1, 2, 5, 47, 130})
        for (const bool strided_w : {false, true})
          for (const bool divide : {false, true})
            for (const bool special : {false, true}) {
              check_rhs_row(run, k, n, strided_w, divide, special, ++seed);
              if (HasFatalFailure()) return;
            }
  }
}

TEST(NumericKernels, SignbitPreservingPerturbation) {
  // -0.0 pivots must perturb to -kPivotFloor (the old `d >= 0` test
  // flipped them positive).
  for (const bool blocked : {true, false}) {
    std::vector<double> lu{-0.0, 0.0, 1.0, 1.0};  // column-major 2x2
    const PartialFactorResult lr =
        blocked ? partial_lu_blocked(FrontView{lu.data(), 2, 2}, 1)
                : partial_lu_reference(FrontView{lu.data(), 2, 2}, 1);
    EXPECT_EQ(lr.perturbations, 1);
    EXPECT_EQ(lu[0], -kPivotFloor) << "blocked=" << blocked;

    std::vector<double> ld{-0.0, 0.0, 0.0, 1.0};
    const PartialFactorResult dr =
        blocked ? partial_ldlt_blocked(FrontView{ld.data(), 2, 2}, 1)
                : partial_ldlt_reference(FrontView{ld.data(), 2, 2}, 1);
    EXPECT_EQ(dr.perturbations, 1);
    EXPECT_EQ(ld[0], -kPivotFloor) << "blocked=" << blocked;

    std::vector<double> pos{0.0, 0.0, 1.0, 1.0};
    const PartialFactorResult pr =
        blocked ? partial_lu_blocked(FrontView{pos.data(), 2, 2}, 1)
                : partial_lu_reference(FrontView{pos.data(), 2, 2}, 1);
    EXPECT_EQ(pr.perturbations, 1);
    EXPECT_EQ(pos[0], kPivotFloor);
  }
}

TEST(NumericKernels, ExtendAddMappedScattersThroughLocalMap) {
  std::vector<double> parent(16, 0.0);  // 4x4
  FrontView pv{parent.data(), 4, 4};
  const std::vector<double> cb{1.0, 3.0, 2.0, 4.0};  // 2x2 column-major
  const std::vector<index_t> positions{1, 3};
  extend_add_mapped(pv, cb.data(), 2, 2, positions);
  extend_add_mapped(pv, cb.data(), 2, 2, positions);  // accumulates
  EXPECT_DOUBLE_EQ(pv.at(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(pv.at(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(pv.at(3, 1), 6.0);
  EXPECT_DOUBLE_EQ(pv.at(3, 3), 8.0);
  EXPECT_DOUBLE_EQ(pv.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(pv.at(2, 2), 0.0);
}

}  // namespace
}  // namespace memfront
