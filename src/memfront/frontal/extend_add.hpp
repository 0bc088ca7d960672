// Extend-add assembly: scatter a child's contribution block into the
// parent's frontal matrix (Section 2: "summed with the values contained in
// the frontal matrix of the parent").
#pragma once

#include <span>

#include "memfront/frontal/kernels.hpp"

namespace memfront {

/// Scatter with a precomputed local map: positions[c] is the parent-local
/// row of the child's c-th contribution index. This is the hot path — the
/// numeric factorization keeps a global-to-local map of the current front
/// and derives `positions` in O(ncb), so no per-entry (or even per-merge)
/// index search happens during assembly. The child block is ncb x ncb
/// column-major with leading dimension child_ld.
void extend_add_mapped(FrontView parent, const double* child_cb, index_t ncb,
                       index_t child_ld, std::span<const index_t> positions);

/// Scatters one column panel of a child CB: `panel` holds CB columns
/// [col_begin, col_end) — full rows, column-major, leading dimension
/// child_ld — and positions is the whole CB's map. Splitting a CB into
/// panels and scattering them in order performs exactly the additions
/// of one whole-CB extend_add_mapped call (each front entry receives a
/// single contribution per child), so the result is bit-identical; the
/// out-of-core assembly uses it to stream spilled CBs through a memory
/// window of one panel.
void extend_add_mapped_cols(FrontView parent, const double* panel,
                            index_t ncb, index_t child_ld, index_t col_begin,
                            index_t col_end,
                            std::span<const index_t> positions);

}  // namespace memfront
