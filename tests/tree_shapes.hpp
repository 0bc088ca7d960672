// Test matrices whose assembly-tree shape is known under the natural
// ordering, shared by the scheduler and solve tests.
#pragma once

#include "memfront/sparse/coo.hpp"
#include "memfront/sparse/csc.hpp"

namespace memfront {

/// `blocks` tridiagonal blocks of `size` columns each, followed by a
/// dense `border` coupled to the last column of every block. With a
/// border the tree is an arrowhead: the border's front is the root and
/// each block hangs below it as a chain, one child per block. Without
/// one the blocks are independent: a forest with one root per block.
/// Diagonally dominant, with unsymmetric values.
inline CscMatrix block_matrix(index_t blocks, index_t size, index_t border) {
  const index_t body = blocks * size;
  CooMatrix coo(body + border, body + border);
  for (index_t j = 0; j < body; ++j) {
    coo.add(j, j, 4.0 + 0.01 * static_cast<double>(j % 7));
    if (j % size + 1 < size) {
      coo.add(j + 1, j, -1.0);
      coo.add(j, j + 1, -1.0);
      continue;
    }
    for (index_t r = body; r < body + border; ++r) {
      coo.add(r, j, 0.01);
      coo.add(j, r, -0.02);
    }
  }
  for (index_t r = body; r < body + border; ++r)
    for (index_t c = body; c < body + border; ++c)
      coo.add(r, c, r == c ? 8.0 : -0.1);
  return coo.to_csc();
}

/// `blocks` dense blocks of `size` columns each, every column coupled
/// to a dense `border`: an arrowhead of big fronts. Each block is one
/// front of size + border columns that eliminates its `size` pivots,
/// and all of them are children of the border's front, the root. At the
/// predict_min_ooc_budget floor every block front needs almost the whole
/// budget. Diagonally dominant, with unsymmetric values.
inline CscMatrix dense_block_matrix(index_t blocks, index_t size,
                                    index_t border) {
  const index_t body = blocks * size;
  CooMatrix coo(body + border, body + border);
  for (index_t j = 0; j < body; ++j) {
    const index_t b0 = j - j % size;
    for (index_t i = b0; i < b0 + size; ++i)
      coo.add(i, j,
              i == j ? 2.0 * static_cast<double>(size)
                     : 0.5 + 0.001 * static_cast<double>((i + 3 * j) % 11));
    for (index_t r = body; r < body + border; ++r) {
      coo.add(r, j, 0.01);
      coo.add(j, r, -0.02);
    }
  }
  for (index_t r = body; r < body + border; ++r)
    for (index_t c = body; c < body + border; ++c)
      coo.add(r, c, r == c ? 8.0 : -0.1);
  return coo.to_csc();
}

/// A 1-wide (chain) assembly tree: a tridiagonal matrix — every node has
/// exactly one child, so at most one task is ever ready.
inline CscMatrix chain_matrix(index_t n) { return block_matrix(1, n, 0); }

}  // namespace memfront
