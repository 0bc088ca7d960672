#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "memfront/frontal/block_cyclic.hpp"
#include "memfront/frontal/extend_add.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/rng.hpp"

namespace memfront {
namespace {

/// A zero-initialized column-major matrix for building test fronts.
class DenseMatrix {
 public:
  DenseMatrix(index_t rows, index_t cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              0.0) {}

  index_t rows() const noexcept { return rows_; }
  double& operator()(index_t r, index_t c) {
    return data_[static_cast<std::size_t>(c) * rows_ + r];
  }
  double operator()(index_t r, index_t c) const {
    return data_[static_cast<std::size_t>(c) * rows_ + r];
  }
  void swap_rows(index_t r1, index_t r2) {
    for (index_t c = 0; c < cols_; ++c)
      std::swap((*this)(r1, c), (*this)(r2, c));
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> data_;
};

/// Scatters a child CB into a parent front by global index:
/// parent_rows / child_rows are the sorted index lists of the two fronts,
/// and every child row must appear among the parent's. A merge pass
/// derives the positions, then extend_add_mapped scatters.
void extend_add(DenseMatrix& parent, std::span<const index_t> parent_rows,
                const DenseMatrix& child_cb,
                std::span<const index_t> child_rows) {
  std::vector<index_t> position(child_rows.size());
  std::size_t p = 0;
  for (std::size_t c = 0; c < child_rows.size(); ++c) {
    while (p < parent_rows.size() && parent_rows[p] < child_rows[c]) ++p;
    check(p < parent_rows.size() && parent_rows[p] == child_rows[c],
          "extend_add: child row missing from parent front");
    position[c] = static_cast<index_t>(p);
  }
  extend_add_mapped(FrontView{parent.data(), parent.rows(), parent.rows()},
                    child_cb.data(), child_cb.rows(), child_cb.rows(),
                    position);
}

DenseMatrix random_dominant(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n, n);
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r)
      if (r != c) m(r, c) = rng.real(-1.0, 1.0);
  for (index_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (index_t c = 0; c < n; ++c) sum += std::abs(m(r, c));
    m(r, r) = sum + 1.0;
  }
  return m;
}

/// The blocked kernels' view of a square DenseMatrix.
FrontView view(DenseMatrix& m) { return {m.data(), m.rows(), m.rows()}; }

DenseMatrix random_spd(index_t n, std::uint64_t seed) {
  DenseMatrix a = random_dominant(n, seed);
  DenseMatrix s(n, n);
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r) s(r, c) = 0.5 * (a(r, c) + a(c, r));
  return s;
}

/// Reconstructs L*U from a partially factored front and compares with the
/// pivoted original on the eliminated part; checks the Schur complement
/// against a naive elimination.
void check_partial_lu(index_t n, index_t npiv, std::uint64_t seed) {
  const DenseMatrix original = random_dominant(n, seed);
  DenseMatrix work = original;
  const PartialFactorResult pf = partial_lu_blocked(view(work), npiv);
  ASSERT_EQ(static_cast<index_t>(pf.pivot_rows.size()), npiv);
  EXPECT_EQ(pf.perturbations, 0);

  // Apply the recorded swaps to a copy of the original.
  DenseMatrix p = original;
  for (index_t k = 0; k < npiv; ++k)
    p.swap_rows(k, pf.pivot_rows[static_cast<std::size_t>(k)]);

  // Naive right-looking elimination of npiv pivots on the same matrix.
  DenseMatrix ref = p;
  for (index_t k = 0; k < npiv; ++k) {
    for (index_t r = k + 1; r < n; ++r) {
      const double l = ref(r, k) / ref(k, k);
      for (index_t c = k + 1; c < n; ++c) ref(r, c) -= l * ref(k, c);
      ref(r, k) = l;
    }
  }
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r)
      EXPECT_NEAR(work(r, c), ref(r, c), 1e-9)
          << "entry (" << r << "," << c << ")";
}

TEST(PartialLu, MatchesNaiveElimination) {
  check_partial_lu(8, 3, 1);
  check_partial_lu(12, 12, 2);  // full factorization
  check_partial_lu(10, 1, 3);
  check_partial_lu(16, 9, 4);
}

TEST(PartialLu, PivotingPicksLargestFullySummed) {
  DenseMatrix m(3, 3);
  m(0, 0) = 0.1;
  m(1, 0) = 5.0;  // fully summed (npiv=2): must be chosen
  m(2, 0) = 9.0;  // NOT fully summed: must not be chosen
  m(0, 1) = 1.0;
  m(1, 1) = 1.0;
  m(2, 2) = 1.0;
  const PartialFactorResult pf = partial_lu_blocked(view(m), 2);
  EXPECT_EQ(pf.pivot_rows[0], 1);
}

TEST(PartialLu, PerturbsSingularPivot) {
  DenseMatrix m(2, 2);
  m(0, 1) = 1.0;
  m(1, 0) = 0.0;
  m(1, 1) = 1.0;
  // npiv=1 and the only eligible pivot is exactly zero.
  const PartialFactorResult pf = partial_lu_blocked(view(m), 1);
  EXPECT_EQ(pf.perturbations, 1);
}

TEST(PartialLdlt, ReconstructsSymmetricMatrix) {
  const index_t n = 10, npiv = 10;
  const DenseMatrix original = random_spd(n, 5);
  DenseMatrix work = original;
  const PartialFactorResult pf = partial_ldlt_blocked(view(work), npiv);
  EXPECT_EQ(pf.perturbations, 0);
  // A == L D Lᵀ with L unit lower (panel), D the diagonal.
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j <= i; ++j) {
      double sum = 0.0;
      for (index_t k = 0; k <= j; ++k) {
        const double lik = i == k ? 1.0 : work(i, k);
        const double ljk = j == k ? 1.0 : work(j, k);
        sum += lik * work(k, k) * ljk;
      }
      EXPECT_NEAR(sum, original(i, j), 1e-8)
          << "entry (" << i << "," << j << ")";
    }
}

TEST(PartialLdlt, SchurComplementSymmetric) {
  const index_t n = 12, npiv = 5;
  DenseMatrix work = random_spd(n, 6);
  partial_ldlt_blocked(view(work), npiv);
  for (index_t r = npiv; r < n; ++r)
    for (index_t c = npiv; c < n; ++c)
      EXPECT_NEAR(work(r, c), work(c, r), 1e-9);
}

TEST(ExtendAdd, ScattersByGlobalIndex) {
  DenseMatrix parent(4, 4);
  const std::vector<index_t> parent_rows{3, 7, 9, 12};
  DenseMatrix cb(2, 2);
  cb(0, 0) = 1.0;
  cb(0, 1) = 2.0;
  cb(1, 0) = 3.0;
  cb(1, 1) = 4.0;
  const std::vector<index_t> child_rows{7, 12};
  extend_add(parent, parent_rows, cb, child_rows);
  EXPECT_DOUBLE_EQ(parent(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(parent(1, 3), 2.0);
  EXPECT_DOUBLE_EQ(parent(3, 1), 3.0);
  EXPECT_DOUBLE_EQ(parent(3, 3), 4.0);
  EXPECT_DOUBLE_EQ(parent(0, 0), 0.0);
}

TEST(ExtendAdd, AccumulatesMultipleChildren) {
  DenseMatrix parent(2, 2);
  const std::vector<index_t> parent_rows{1, 2};
  DenseMatrix cb(1, 1);
  cb(0, 0) = 2.5;
  extend_add(parent, parent_rows, cb, std::vector<index_t>{2});
  extend_add(parent, parent_rows, cb, std::vector<index_t>{2});
  EXPECT_DOUBLE_EQ(parent(1, 1), 5.0);
}

TEST(ExtendAdd, RejectsMissingRow) {
  DenseMatrix parent(2, 2);
  DenseMatrix cb(1, 1);
  EXPECT_THROW(extend_add(parent, std::vector<index_t>{1, 2}, cb,
                          std::vector<index_t>{5}),
               std::logic_error);
}

TEST(BlockCyclic, EntriesPartitionTheMatrix) {
  for (index_t nprocs : {1, 4, 6, 16}) {
    const BlockCyclicLayout grid = choose_grid(nprocs, 8);
    EXPECT_EQ(grid.pr * grid.pc, nprocs);  // our grids use every process
    for (index_t n : {5, 64, 131}) {
      count_t total = 0;
      for (index_t pr = 0; pr < grid.pr; ++pr)
        for (index_t pc = 0; pc < grid.pc; ++pc)
          total += entries_on_process(grid, n, pr, pc);
      EXPECT_EQ(total, static_cast<count_t>(n) * n)
          << "P=" << nprocs << " n=" << n;
    }
  }
}

TEST(BlockCyclic, MaxIsAtOrigin) {
  const BlockCyclicLayout grid = choose_grid(8, 16);
  for (index_t n : {40, 100, 333}) {
    const count_t mx = max_entries_per_process(grid, n);
    for (index_t pr = 0; pr < grid.pr; ++pr)
      for (index_t pc = 0; pc < grid.pc; ++pc)
        EXPECT_LE(entries_on_process(grid, n, pr, pc), mx);
  }
}

TEST(BlockCyclic, GridNearSquare) {
  EXPECT_EQ(choose_grid(16).pr, 4);
  EXPECT_EQ(choose_grid(32).pr, 4);
  EXPECT_EQ(choose_grid(32).pc, 8);
  EXPECT_EQ(choose_grid(1).pr, 1);
  EXPECT_EQ(choose_grid(7).pr, 1);  // prime: 1 x 7
}

TEST(BlockCyclic, LuFlopsCubic) {
  EXPECT_NEAR(static_cast<double>(dense_lu_flops(300)),
              2.0 / 3.0 * 300.0 * 300.0 * 300.0, 1e6);
}

}  // namespace
}  // namespace memfront
