#include "memfront/frontal/arena.hpp"

#include <algorithm>

#include "memfront/ooc/config.hpp"
#include "memfront/support/error.hpp"

namespace memfront {

count_t predict_arena_peak(const AssemblyTree& tree,
                           std::span<const index_t> traversal) {
  count_t cb_live = 0;
  count_t peak = 0;
  for (index_t i : traversal) {
    const count_t fsq = square(tree.nfront(i));
    // Assembly: the front coexists with every child CB still stacked.
    peak = std::max(peak, cb_live + fsq);
    for (index_t child : tree.children(i)) cb_live -= square(tree.ncb(child));
    // Extraction: the node's CB is pushed while the front is still live
    // (the copy out of the Schur block).
    peak = std::max(peak, cb_live + square(tree.ncb(i)) + fsq);
    cb_live += square(tree.ncb(i));
  }
  check(cb_live == 0, "predict_arena_peak: traversal left CBs stacked");
  return peak;
}

count_t predict_min_ooc_budget(const AssemblyTree& tree,
                               std::span<const index_t> traversal) {
  count_t floor = 0;
  for (index_t i : traversal) {
    // The two coexistence windows of one node, the same ones the
    // budgeted coordinator admits when fully degraded: assembly
    // streams a spilled child one column panel at a time (front + one
    // panel of the widest child — never a whole CB, let alone all of
    // them at once like the in-core stack), and extraction streams the
    // node's own CB panel by panel straight from the live front after
    // the children are freed (front + one of its own panels).
    const auto panel_window = [](index_t n) {
      return static_cast<count_t>(ooc_cb_panel_cols(n)) *
             static_cast<count_t>(n);
    };
    count_t widest_child = 0;
    for (index_t child : tree.children(i))
      widest_child = std::max(widest_child, panel_window(tree.ncb(child)));
    const count_t fsq = square(tree.nfront(i));
    floor = std::max(floor,
                     fsq + std::max(widest_child, panel_window(tree.ncb(i))));
  }
  return floor;
}

}  // namespace memfront
