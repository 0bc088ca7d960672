#include "memfront/solver/front_task.hpp"

#include <algorithm>

#include <cmath>
#include <limits>

#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/ooc/coordinator.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"

namespace memfront::numeric_detail {
namespace {

/// Assembles, factors and extracts node i into `front` (admitted by the
/// caller); the children come from the coordinator.
FrontResult process_front(const FrontContext& ctx, index_t i,
                          OocCoordinator& coord, FrontWorkspace& ws,
                          FrontView front, NodeFactor& out,
                          std::vector<index_t>& row_of) {
  MEMFRONT_SPAN("factor_front", i);
  const std::uint64_t front_t0 =
      obs::Tracer::enabled() ? obs::Tracer::global().now_ns() : 0;
  const AssemblyTree& tree = *ctx.tree;
  const CscMatrix& a = *ctx.a;
  const bool sym = ctx.symmetric;
  const index_t nfront = tree.nfront(i);
  const index_t npiv = tree.npiv(i);
  const index_t fc = tree.first_col(i);
  const auto rows = ctx.structure->rows(i);

  for (index_t r = 0; r < nfront; ++r)
    ws.local[static_cast<std::size_t>(rows[r])] = r;

  {
    MEMFRONT_SPAN("assemble", i);
    // Assemble original entries owned by this node's pivots.
    for (index_t c = fc; c < fc + npiv; ++c) {
      const index_t lc = c - fc;
      auto cr = a.column(c);
      auto cv = a.column_values(c);
      for (std::size_t k = 0; k < cr.size(); ++k) {
        const index_t r = cr[k];
        if (r < fc) continue;  // assembled at an earlier node
        const index_t lr = ws.local[static_cast<std::size_t>(r)];
        check(lr != kNone, "numeric factorization: entry outside front");
        front.at(lr, lc) += cv[k];
        // Symmetric storage keeps the full square in sync; the mirror of a
        // pivot-block entry arrives via the other pivot's column.
        if (sym && r >= fc + npiv) front.at(lc, lr) += cv[k];
      }
      if (!sym) {
        auto rr = ctx.at->column(c);
        auto rv = ctx.at->column_values(c);
        for (std::size_t k = 0; k < rr.size(); ++k) {
          const index_t x = rr[k];
          if (x < fc + npiv) continue;  // pivot block handled above
          const index_t lx = ws.local[static_cast<std::size_t>(x)];
          check(lx != kNone, "numeric factorization: row entry outside front");
          front.at(lc, lx) += rv[k];
        }
      }
    }
  }

  // Extend-add the children through the local map (O(ncb) per child, no
  // index search), in the tree's child order. The coordinator frees each
  // child's CB right after its own scatter, and chains the read-ahead of
  // a spilled next sibling behind it.
  const auto children = tree.children(i);
  {
    MEMFRONT_SPAN("extend_add", i);
    for (std::size_t c = 0; c < children.size(); ++c) {
      const index_t child = children[c];
      const index_t ncb_child = tree.ncb(child);
      const auto child_rows = ctx.structure->rows(child);
      ws.positions.resize(static_cast<std::size_t>(ncb_child));
      for (index_t k = 0; k < ncb_child; ++k)
        ws.positions[static_cast<std::size_t>(k)] =
            ws.local[static_cast<std::size_t>(
                child_rows[static_cast<std::size_t>(tree.npiv(child) + k)])];
      coord.assemble_child(
          child, c + 1 < children.size() ? children[c + 1] : kNone, front,
          ws.positions);
    }
  }

  // Fault site: a NaN landing in the assembled front (simulating memory
  // corruption or bad upstream data) must surface as kPivotBreakdown from
  // the post-kernel pivot check below — never as silent corruption.
  if (npiv > 0 && MEMFRONT_FAULT("front.assemble_nan", i))
    front.at(0, 0) = std::numeric_limits<double>::quiet_NaN();

  PartialFactorResult pf;
  {
    MEMFRONT_SPAN("kernel", i);
    pf = sym ? (ctx.kernel == FrontalKernel::kBlocked
                    ? partial_ldlt_blocked(front, npiv, ws.team)
                    : partial_ldlt_reference(front, npiv))
             : (ctx.kernel == FrontalKernel::kBlocked
                    ? partial_lu_blocked(front, npiv, ws.team)
                    : partial_lu_reference(front, npiv));
  }
  // Non-finite pivots mean the factorization is numerically dead from
  // this node on (every descendant of a NaN pivot is NaN): O(npiv) scan,
  // structured error instead of a silently poisoned factor.
  for (index_t k = 0; k < npiv; ++k) {
    if (!std::isfinite(front.at(k, k))) {
      throw SolverError(ErrorCode::kPivotBreakdown,
                        "non-finite pivot in factored front",
                        std::source_location::current(),
                        ErrorContext{.node = i, .input_line = -1, .detail = {}});
    }
  }
  if (!sym) {
    for (index_t k = 0; k < npiv; ++k) {
      const index_t piv = pf.pivot_rows[static_cast<std::size_t>(k)];
      std::swap(row_of[static_cast<std::size_t>(fc + k)],
                row_of[static_cast<std::size_t>(fc + piv)]);
    }
  }

  {
    MEMFRONT_SPAN("extract", i);
    // Extract factors (contiguous column slices of the front).
    out.panel.resize(static_cast<std::size_t>(nfront) * npiv);
    for (index_t j = 0; j < npiv; ++j) {
      const double* col = front.col(j);
      std::copy(col, col + nfront,
                out.panel.data() + static_cast<std::size_t>(j) * nfront);
    }
    const index_t ncb = nfront - npiv;
    if (!sym && ncb > 0) {
      out.u12.resize(static_cast<std::size_t>(npiv) * ncb);
      for (index_t j = 0; j < ncb; ++j) {
        const double* col = front.col(npiv + j);
        std::copy(col, col + npiv,
                  out.u12.data() + static_cast<std::size_t>(j) * npiv);
      }
    }
  }

  for (index_t r = 0; r < nfront; ++r)
    ws.local[static_cast<std::size_t>(rows[r])] = kNone;
  if (front_t0 != 0 && obs::Tracer::enabled()) {
    // Per-front latency distribution, gated behind the tracing switch so
    // the disabled path pays only the relaxed loads above.
    static obs::Histogram& latency =
        obs::MetricsRegistry::global().histogram("solver.front.latency_ns");
    latency.observe(static_cast<std::int64_t>(obs::Tracer::global().now_ns() -
                                              front_t0));
  }
  return FrontResult{pf.perturbations, pf.exact_zero_pivots,
                     pf.max_pivot_abs};
}

}  // namespace

FrontResult factor_node(const FrontContext& ctx, index_t i, index_t worker,
                        OocCoordinator& coord, FrontWorkspace& ws,
                        NodeFactor& out, std::vector<index_t>& row_of) {
  coord.begin_node(i, worker);
  const FrontView front = ws.acquire_front(ctx.tree->nfront(i));
  const FrontResult fr = process_front(ctx, i, coord, ws, front, out, row_of);
  coord.store_cb(i, worker, front, ctx.tree->npiv(i));  // no-op without a CB
  coord.end_node(i, out, worker);
  return fr;
}

void extract_cb(FrontView front, index_t npiv, double* cb_out) {
  const index_t ncb = front.n - npiv;
  for (index_t c = 0; c < ncb; ++c) {
    const double* col = front.col(npiv + c) + npiv;
    std::copy(col, col + ncb,
              cb_out + static_cast<std::size_t>(c) * ncb);
  }
}

}  // namespace memfront::numeric_detail
