// Physical memory models of the multifrontal CB stack.
//
// The sequential factorization is a postorder walk, so contribution
// blocks live in strict LIFO order: a node's children's CBs are the top
// of the stack when the node assembles, and its own CB is pushed after
// they pop. The factorization driver keeps every CB in the
// OocCoordinator's ledger (in core is its unlimited budget) and the
// current front in a separate scratch buffer (the paper's third storage
// area); predict_arena_peak models both areas together in physical
// full-square doubles — unlike tree_memory, which counts model entries
// (triangular for symmetric problems) — so the in-core ledger peak of
// numeric_factorize, the driver's one-worker run, must *equal* the
// prediction. predict_min_ooc_budget is the floor below which no budget
// can admit the traversal.
#pragma once

#include <span>

#include "memfront/symbolic/assembly_tree.hpp"

namespace memfront {

/// Physical peak (doubles, full-square storage) of factorizing `traversal`
/// with the CB stack + front-scratch discipline the numeric driver uses:
/// at each node the front coexists first with the children's stacked CBs
/// (assembly) and then with the node's own pushed CB (extraction copy).
/// numeric_factorize's in-core ledger peak equals this exactly.
count_t predict_arena_peak(const AssemblyTree& tree,
                           std::span<const index_t> traversal);

/// Smallest out-of-core budget (doubles) that can factorize `traversal`
/// at all: the worst single-node coexistence window — the front plus
/// one column panel of the widest child CB (spilled CBs stream through
/// extend-add panel by panel) or the front plus one panel of the
/// node's own CB (degraded extraction streams it to disk straight from
/// the live front) — maximized over the tree. Below this even "spill
/// everything else" cannot admit some node, and a budgeted run throws
/// kResourceExhausted; at or above it a serial traversal always
/// completes (the coordinator can evict every CB outside the current
/// window). Always <= predict_arena_peak of the same traversal, and on
/// real trees well below it — that headroom is what makes budgets like
/// 0.8x the in-core peak feasible.
count_t predict_min_ooc_budget(const AssemblyTree& tree,
                               std::span<const index_t> traversal);

}  // namespace memfront
