#include "memfront/frontal/extend_add.hpp"

#include "memfront/support/error.hpp"

namespace memfront {

void extend_add_mapped(FrontView parent, const double* child_cb, index_t ncb,
                       index_t child_ld, std::span<const index_t> positions) {
  extend_add_mapped_cols(parent, child_cb, ncb, child_ld, 0, ncb, positions);
}

void extend_add_mapped_cols(FrontView parent, const double* panel,
                            index_t ncb, index_t child_ld, index_t col_begin,
                            index_t col_end,
                            std::span<const index_t> positions) {
  check(static_cast<index_t>(positions.size()) == ncb,
        "extend_add_mapped: position map size mismatch");
  check(0 <= col_begin && col_begin <= col_end && col_end <= ncb,
        "extend_add_mapped: column panel out of range");
  for (index_t cc = col_begin; cc < col_end; ++cc) {
    const index_t pc = positions[static_cast<std::size_t>(cc)];
    double* pcol = parent.col(pc);
    const double* ccol = panel + static_cast<std::size_t>(cc - col_begin) *
                                     static_cast<std::size_t>(child_ld);
    for (index_t cr = 0; cr < ncb; ++cr)
      pcol[positions[static_cast<std::size_t>(cr)]] += ccol[cr];
  }
}

}  // namespace memfront
