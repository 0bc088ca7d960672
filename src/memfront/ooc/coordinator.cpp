#include "memfront/ooc/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "memfront/frontal/extend_add.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/solver/front_task.hpp"
#include "memfront/solver/numeric_factor.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"

namespace memfront {

namespace {

inline std::size_t sz(index_t i) { return static_cast<std::size_t>(i); }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A CB's storage. Fault site and real allocation failure alike surface
/// as kResourceExhausted naming the node, never as a raw bad_alloc.
std::vector<double> allocate_cb(index_t node, count_t doubles) {
  if (MEMFRONT_FAULT("coordinator.cb_alloc", node))
    throw SolverError(ErrorCode::kResourceExhausted,
                      "injected CB allocation failure",
                      std::source_location::current(),
                      ErrorContext{.node = node, .input_line = -1,
                                   .detail = {}});
  try {
    return std::vector<double>(static_cast<std::size_t>(doubles));
  } catch (const std::bad_alloc&) {
    throw SolverError(ErrorCode::kResourceExhausted,
                      "ooc: CB allocation failed",
                      std::source_location::current(),
                      ErrorContext{.node = node, .input_line = -1,
                                   .detail = std::to_string(doubles) +
                                             " doubles"});
  }
}

}  // namespace

OocCoordinator::OocCoordinator(const OocExecConfig& config,
                               const AssemblyTree& tree, index_t workers)
    : tree_(tree),
      config_(config),
      workers_(std::max<index_t>(1, workers)),
      budget_(config.enabled ? config.budget_doubles : 0) {
  cbs_.resize(sz(tree.num_nodes()));
  stats_.budget_doubles = budget_;
  // In core is the unlimited budget with nothing on disk: no store, no
  // files, no I/O thread.
  if (!config.enabled) return;
  SpillStoreOptions sopts;
  sopts.dir = config.spill_dir;
  sopts.files = 2 * workers_;  // cb_file(w) and factor_file(w)
  sopts.write_behind = config.write_behind;
  sopts.buffer_bytes = static_cast<std::size_t>(budget_ / 4) * sizeof(double);
  store_ = std::make_shared<SpillStore>(
      sopts, [this](SpillStore::BlockId id, index_t node, std::size_t bytes,
                    bool ok) { on_landing(id, node, bytes, ok); });
  if (!config.spill_factors) return;
  factors_ = std::make_shared<OocFactorState>();
  factors_->store = store_;
  factors_->nodes.resize(sz(tree.num_nodes()));
}

OocCoordinator::~OocCoordinator() {
  // Landings re-enter this object: silence them before the members die
  // (the store itself may outlive us through the factor-state handle).
  if (store_) store_->set_landing({});
}

void OocCoordinator::charge_locked(count_t doubles) {
  charged_ += doubles;
  stats_.charged_peak_doubles =
      std::max(stats_.charged_peak_doubles, charged_);
}

std::uint64_t OocCoordinator::note_release_locked() {
  cv_.notify_all();
  return ++release_epoch_;
}

void OocCoordinator::released(std::uint64_t epoch) {
  if (sched_hooks_.released) sched_hooks_.released(epoch);
}

void OocCoordinator::on_landing(SpillStore::BlockId, index_t,
                                std::size_t bytes, bool) {
  // Same release for a spilled CB and a streamed factor panel: the
  // in-flight copy left RAM. A failed write also releases — the store
  // holds the failure and the next admission step or store call
  // rethrows it (waiters must unwind, not wait on a dead writer).
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const count_t d = static_cast<count_t>(bytes / sizeof(double));
    charged_ -= d;
    inflight_ -= d;
    epoch = note_release_locked();
  }
  released(epoch);
}

std::vector<SpillStore::BlockId> OocCoordinator::append_cb_blocks(
    index_t worker, index_t node, index_t n, std::vector<double> data) {
  // Called with mu_ released: appends can block on the in-flight
  // buffer, whose drain fires landings that need the mutex.
  std::vector<SpillStore::BlockId> ids;
  const index_t panel_cols = ooc_cb_panel_cols(n);
  if (panel_cols >= n) {
    ids.push_back(store_->append(cb_file(worker), node, std::move(data)));
    return ids;
  }
  // Large CB: one spill block per column panel, so the parent's
  // assembly can stream it back through a single-panel window.
  for (index_t c0 = 0; c0 < n; c0 += panel_cols) {
    const index_t c1 = std::min(n, c0 + panel_cols);
    std::vector<double> panel(
        data.begin() + static_cast<std::ptrdiff_t>(c0) * n,
        data.begin() + static_cast<std::ptrdiff_t>(c1) * n);
    ids.push_back(store_->append(cb_file(worker), node, std::move(panel)));
  }
  return ids;
}

/// The budget a node's reservation must hold from begin to end: one
/// column panel of the widest child CB (the streamed reload buffer) or
/// one panel of its own CB (the streamed extraction buffer), whichever
/// is larger. Every in-window allocation of the node's processing fits
/// inside it, so a worker that begins a node never waits for memory
/// again until end_node — the deadlock-freedom invariant. An unlimited
/// budget never streams, so it reserves nothing beyond the front: the
/// ledger then charges exactly the in-core stack discipline.
count_t OocCoordinator::reserve_doubles(index_t node) const {
  if (budget_ <= 0) return 0;
  const auto panel_window = [](index_t n) {
    return static_cast<count_t>(ooc_cb_panel_cols(n)) *
           static_cast<count_t>(n);
  };
  count_t reserve = panel_window(tree_.ncb(node));
  for (index_t child : tree_.children(node))
    reserve = std::max(reserve, panel_window(tree_.ncb(child)));
  return reserve;
}

bool OocCoordinator::try_admit_locked(std::unique_lock<std::mutex>& lock,
                                      count_t need, index_t node,
                                      index_t worker, bool may_wait) {
  for (;;) {
    if (cancelled_)
      throw SolverError(ErrorCode::kWorkerFailure,
                        "ooc: admission cancelled after a worker failure",
                        std::source_location::current(),
                        ErrorContext{.node = node, .input_line = -1,
                                     .detail = {}});
    if (budget_ <= 0 || charged_ + need <= budget_) {
      charge_locked(need);
      return true;
    }

    // 1. Evict unpinned resident CBs, largest first.
    std::vector<SpillCandidate> candidates;
    candidates.reserve(residency_.size());
    for (index_t n : residency_) {
      const Cb& cb = cbs_[sz(n)];
      // Every unpinned resident CB is a legal victim — including the
      // caller's not-yet-consumed children, which the streaming
      // assembly will reload one at a time when their turn comes.
      if (cb.state == CbState::kResident && cb.pins == 0)
        candidates.push_back({n, static_cast<count_t>(cb.doubles)});
    }
    if (!candidates.empty()) {
      const std::vector<std::size_t> victims =
          choose_spill_victims(candidates, charged_ + need - budget_,
                               SpillPolicy::kLargestFirst);
      struct Evicted {
        index_t node;
        std::vector<double> data;
      };
      std::vector<Evicted> evicted;
      evicted.reserve(victims.size());
      for (std::size_t k : victims) {
        const index_t n = candidates[k].id;
        Cb& cb = cbs_[sz(n)];
        cb.state = CbState::kInFlight;
        inflight_ += static_cast<count_t>(cb.doubles);
        stats_.spill_doubles += static_cast<count_t>(cb.doubles);
        ++stats_.spill_events;
        evicted.push_back({n, std::move(cb.data)});
        std::erase(residency_, n);
      }
      // Appends can block on the in-flight buffer, whose drain fires
      // landings that need this mutex: never append while holding it.
      lock.unlock();
      for (Evicted& e : evicted) {
        MEMFRONT_SPAN("ooc.spill", e.node);
        std::vector<SpillStore::BlockId> ids = append_cb_blocks(
            worker, e.node, tree_.ncb(e.node), std::move(e.data));
        std::uint64_t epoch = 0;
        {
          std::lock_guard<std::mutex> relock(mu_);
          Cb& cb = cbs_[sz(e.node)];
          cb.blocks = std::move(ids);
          cb.state = CbState::kOnDisk;
          epoch = note_release_locked();
        }
        released(epoch);
      }
      lock.lock();
      continue;  // the caller's need may have changed: recompute
    }

    // 2. Nothing spillable, but in-flight writes will land and release
    //    their charge — or a mid-node worker (whose reservation covers
    //    everything it still needs) will reach end_node and release.
    //    Only begin_node admissions may take this branch: a waiter
    //    there holds no memory, so these waits cannot deadlock.
    const bool io_pending = inflight_ > 0;
    if (may_wait && (io_pending || mid_node_ > 0)) {
      const auto t0 = std::chrono::steady_clock::now();
      // Blocked on the I/O thread when the landings alone would admit
      // the need (otherwise it waits for other workers' releases).
      // Non-blocking store call under mu_ (the prefetch lock order).
      const bool io_bound =
          io_pending && charged_ - inflight_ + need <= budget_;
      if (io_bound) store_->io_wait_begin();
      // The scheduler's memory wait, where the worker helps running
      // fronts. `seen` is read under mu_, and every later release is
      // numbered past it: none can be missed.
      const std::uint64_t seen = release_epoch_;
      lock.unlock();
      const double helped = sched_hooks_.wait(worker, seen);
      lock.lock();
      if (io_bound) store_->io_wait_end();
      stats_.stall_seconds += seconds_since(t0) - helped;
      continue;
    }
    if (!may_wait) return false;  // caller degrades to an uncharged path

    // 3. Truly stuck: nothing resident to evict, nothing in flight, no
    //    other worker holding memory. If the store's I/O thread died,
    //    the real diagnosis is its failure (failed landings released
    //    their charges, so the stuck state is a symptom) — rethrow it
    //    rather than misreport the budget as infeasible. Otherwise
    //    this need genuinely cannot be admitted.
    store_->rethrow_pending_error();
    return false;
  }
}

void OocCoordinator::admit_locked(std::unique_lock<std::mutex>& lock,
                                  count_t need, index_t node, index_t worker) {
  if (try_admit_locked(lock, need, node, worker, /*may_wait=*/true)) return;
  // The budget is infeasible for this need (e.g. smaller than one
  // front's working set): record the overrun when allowed, fail
  // structured otherwise.
  if (config_.allow_overrun) {
    stats_.overrun_peak_doubles =
        std::max(stats_.overrun_peak_doubles, charged_ + need - budget_);
    charge_locked(need);
    return;
  }
  throw_infeasible_locked(need, node);
}

void OocCoordinator::throw_infeasible_locked(count_t need, index_t node) {
  count_t resident = 0, pinned = 0;
  for (index_t n : residency_) {
    resident += static_cast<count_t>(cbs_[sz(n)].doubles);
    if (cbs_[sz(n)].pins > 0)
      pinned += static_cast<count_t>(cbs_[sz(n)].doubles);
  }
  throw SolverError(
      ErrorCode::kResourceExhausted,
      "ooc: memory budget infeasible — one node's working set exceeds "
      "the budget with nothing left to spill",
      std::source_location::current(),
      ErrorContext{.node = node,
                   .input_line = -1,
                   .detail = "budget=" + std::to_string(budget_) +
                             " need=" + std::to_string(need) +
                             " charged=" + std::to_string(charged_) +
                             " resident=" + std::to_string(resident) +
                             " pinned=" + std::to_string(pinned) +
                             " inflight=" + std::to_string(inflight_)});
}

/// Queues an advisory read-ahead for `node`'s first spill block, if it
/// is on disk. Called under mu_; SpillStore::prefetch only enqueues
/// (never blocks on I/O), so the lock order mu_ -> store is safe —
/// landings run with no store lock held.
void OocCoordinator::prefetch_locked(index_t node) {
  if (node == kNone) return;
  const Cb& cb = cbs_[sz(node)];
  if (cb.state == CbState::kOnDisk && !cb.blocks.empty())
    store_->prefetch(cb.blocks.front());
}

void OocCoordinator::begin_node(index_t node, index_t worker) {
  MEMFRONT_SPAN("ooc.begin_node", node);
  const count_t window = square(tree_.nfront(node)) + reserve_doubles(node);
  // The scheduler's policy sees every reservation admission. Consulted
  // before mu_ is taken: the hook locks the scheduler mutex and the
  // coordinator never calls out while holding its own.
  double policy_stall = 0;
  if (sched_hooks_.admit)
    policy_stall = sched_hooks_.admit(worker, node, window);
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.policy_admissions;
  stats_.policy_stall_seconds += policy_stall;
  // The node's whole degraded window — front scratch plus one column
  // panel — is admitted up front, so no later step of this node ever
  // waits for memory. mid_node_ counts only workers whose window is
  // already charged: a begin_node waiter holds nothing and must not
  // make other waiters believe someone can still free memory.
  admit_locked(lock, window, node, worker);
  ++mid_node_;
  if (sched_hooks_.charged) sched_hooks_.charged(worker, window);
  // Start the first spilled child moving while the original-entry
  // assembly runs on this thread.
  for (index_t child : tree_.children(node)) {
    const Cb& cb = cbs_[sz(child)];
    if (cb.state != CbState::kNone && cb.state != CbState::kResident) {
      prefetch_locked(child);
      break;
    }
  }
}

void OocCoordinator::assemble_child(index_t child, index_t next,
                                    FrontView front,
                                    std::span<const index_t> positions) {
  const index_t n = tree_.ncb(child);
  std::unique_lock<std::mutex> lock(mu_);
  Cb& cb = cbs_[sz(child)];
  if (cb.state == CbState::kNone) {
    check(n == 0, "ooc: child CB missing at assembly");
    return;
  }
  if (cb.state == CbState::kResident) {
    // Scatter in place and free. Pinned so eviction cannot race the
    // unlocked extend-add.
    cb.pins = 1;
    prefetch_locked(next);
    lock.unlock();
    extend_add_mapped(front, cb.data.data(), n, n, positions);
    lock.lock();
    Cb& rcb = cbs_[sz(child)];
    charge_locked(-static_cast<count_t>(rcb.doubles));
    std::vector<double>().swap(rcb.data);
    rcb.state = CbState::kNone;
    rcb.pins = 0;
    rcb.doubles = 0;
    std::erase(residency_, child);
    const std::uint64_t epoch = note_release_locked();
    lock.unlock();
    released(epoch);
    return;
  }

  // Spilled (possibly still mid-append after being evicted for our own
  // front): stream it back one block at a time — each block is one
  // column panel, and the single panel buffer is covered by the node's
  // reservation, so no admission (and no wait) happens here.
  // Scattering panels in order is bit-identical to one whole-CB
  // extend-add. The wait below is for the evicting worker's append to
  // finish publishing the block list, not for memory.
  cv_.wait(lock, [&] {
    return cbs_[sz(child)].state == CbState::kOnDisk || cancelled_;
  });
  if (cancelled_)
    throw SolverError(ErrorCode::kWorkerFailure,
                      "ooc: reload cancelled after a worker failure",
                      std::source_location::current(),
                      ErrorContext{.node = child, .input_line = -1,
                                   .detail = {}});
  const std::vector<SpillStore::BlockId> ids = cbs_[sz(child)].blocks;
  prefetch_locked(next);
  MEMFRONT_SPAN("ooc.reload", child);
  lock.unlock();
  // One reload buffer, as wide as the widest panel, serves every block.
  const std::size_t panel_doubles =
      static_cast<std::size_t>(ooc_cb_panel_cols(n)) *
      static_cast<std::size_t>(n);
  const std::unique_ptr<double[]> panel =
      std::make_unique_for_overwrite<double[]>(panel_doubles);
  index_t c0 = 0;
  for (std::size_t b = 0; b < ids.size(); ++b) {
    const std::size_t pd = store_->block_doubles(ids[b]);
    check(pd <= panel_doubles, "ooc: spilled CB block wider than a panel");
    const index_t cols = static_cast<index_t>(pd / static_cast<std::size_t>(n));
    // Chain the read-ahead: block b+1 streams in behind this scatter.
    if (b + 1 < ids.size()) store_->prefetch(ids[b + 1]);
    store_->read(ids[b], panel.get(), pd);
    extend_add_mapped_cols(front, panel.get(), n, n, c0, c0 + cols,
                           positions);
    c0 += cols;
  }
  lock.lock();
  check(c0 == n, "ooc: spilled CB blocks do not cover the CB");
  Cb& dcb = cbs_[sz(child)];
  stats_.reload_doubles += static_cast<count_t>(dcb.doubles);
  ++stats_.reload_events;
  dcb.state = CbState::kNone;
  dcb.doubles = 0;
  dcb.pins = 0;
  const std::vector<SpillStore::BlockId> stale = std::move(dcb.blocks);
  dcb.blocks.clear();
  lock.unlock();
  for (SpillStore::BlockId id : stale) store_->drop(id);
}

void OocCoordinator::store_cb(index_t node, index_t worker, FrontView front,
                              index_t npiv) {
  const index_t n = front.n - npiv;
  const count_t d = square(n);
  if (d == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  {
    Cb& cb = cbs_[sz(node)];
    check(cb.state == CbState::kNone, "ooc: CB stored twice");
    // Non-blocking attempt (spilling victims is allowed, waiting is
    // not): a worker holding its reservation must never wait for
    // memory, or concurrent admissions could deadlock collectively.
    if (try_admit_locked(lock, d, node, worker, /*may_wait=*/false)) {
      // The extraction window: the children are consumed, only the
      // front is still charged for this node. Pinned while its storage
      // is allocated and filled outside the lock, a spill candidate
      // right after.
      Cb& rcb = cbs_[sz(node)];
      rcb.doubles = static_cast<std::size_t>(d);
      rcb.state = CbState::kResident;
      rcb.pins = 1;
      residency_.push_back(node);
      lock.unlock();
      std::vector<double> data = allocate_cb(node, d);
      numeric_detail::extract_cb(front, npiv, data.data());
      lock.lock();
      cbs_[sz(node)].data = std::move(data);
      cbs_[sz(node)].pins = 0;  // now a spill candidate
      const std::uint64_t epoch = note_release_locked();
      lock.unlock();
      released(epoch);
      return;
    }
  }
  // The whole CB cannot fit next to its own front: graceful
  // degradation — extract one column panel at a time straight from the
  // live front and write it synchronously. The single panel buffer is
  // covered by the node's reservation (no admission, no wait, no
  // write-behind copy to charge); the CB is born on disk and the
  // parent's assembly streams it back through the same panels.
  MEMFRONT_SPAN("ooc.stream_cb", node);
  {
    Cb& cb = cbs_[sz(node)];
    cb.doubles = static_cast<std::size_t>(d);
    cb.state = CbState::kInFlight;
    stats_.spill_doubles += d;
    ++stats_.spill_events;
  }
  lock.unlock();
  const index_t panel_cols = ooc_cb_panel_cols(n);
  std::vector<SpillStore::BlockId> ids;
  std::vector<double> panel;
  for (index_t c0 = 0; c0 < n; c0 += panel_cols) {
    const index_t c1 = std::min(n, c0 + panel_cols);
    panel.resize(static_cast<std::size_t>(c1 - c0) *
                 static_cast<std::size_t>(n));
    for (index_t c = c0; c < c1; ++c) {
      const double* col = front.col(npiv + c) + npiv;
      std::copy(col, col + n,
                panel.data() + static_cast<std::size_t>(c - c0) * n);
    }
    ids.push_back(
        store_->write_now(cb_file(worker), node, panel.data(), panel.size()));
  }
  lock.lock();
  Cb& dcb = cbs_[sz(node)];
  dcb.blocks = std::move(ids);
  dcb.state = CbState::kOnDisk;
  const std::uint64_t epoch = note_release_locked();
  lock.unlock();
  released(epoch);
}

void OocCoordinator::end_node(index_t node, NodeFactor& nf, index_t worker) {
  MEMFRONT_SPAN("ooc.end_node", node);
  const count_t window = square(tree_.nfront(node)) + reserve_doubles(node);
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    charge_locked(-window);
    if (sched_hooks_.charged) sched_hooks_.charged(worker, -window);
    epoch = note_release_locked();
  }
  released(epoch);

  if (factors_) {
    auto& slot = factors_->nodes[sz(node)];
    const auto submit = [&](std::vector<double>& part,
                            SpillStore::BlockId& block_out,
                            std::size_t& doubles_out) {
      const count_t d = static_cast<count_t>(part.size());
      if (d == 0) return;
      doubles_out = part.size();
      // A panel bigger than half the budget would starve the in-flight
      // buffer: write it synchronously straight from the factor
      // storage instead (no copy, no charge — the bytes are factor
      // storage either way, and the compute thread absorbs the stall).
      // The same degradation applies when the buffered copy's charge
      // cannot be admitted without waiting — this worker may be the
      // only one left to make progress, so it must not block.
      const bool oversized = budget_ > 0 && d > budget_ / 2;
      bool queued = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        stats_.factor_write_doubles += d;
        if (config_.write_behind && !oversized &&
            try_admit_locked(lock, d, node, worker, /*may_wait=*/false)) {
          inflight_ += d;
          queued = true;
        }
      }
      if (queued) {
        block_out = store_->append(factor_file(worker), node, std::move(part));
        part.clear();
      } else {
        block_out = store_->write_now(factor_file(worker), node, part.data(),
                                      part.size());
        std::vector<double>().swap(part);
      }
    };
    submit(nf.panel, slot.panel, slot.panel_doubles);
    submit(nf.u12, slot.u12, slot.u12_doubles);
    if (slot.panel >= 0 || slot.u12 >= 0) {
      // Workers from several subtrees reach here concurrently; the
      // flag is read under the same mutex by ensure_factors_resident.
      std::lock_guard<std::mutex> flock(factors_->mu);
      factors_->on_disk = true;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    --mid_node_;
    epoch = note_release_locked();
  }
  released(epoch);
}

void OocCoordinator::cancel() {
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    epoch = note_release_locked();
  }
  released(epoch);
}

OocExecStats OocCoordinator::finish() {
  if (store_) {
    // The final drain: its waits are already measured by the store as
    // flush_wait_seconds, folded into the stall below. Every CB block
    // was reloaded and dropped by its parent, so the CB files are
    // truncated first: their dead pages are never written back.
    MEMFRONT_SPAN("ooc.finish_drain");
    for (index_t w = 0; w < workers_; ++w) store_->discard(cb_file(w));
    store_->flush();
  }
  std::lock_guard<std::mutex> lock(mu_);
  check(charged_ == 0, "ooc: charged ledger not empty after factorization");
  check(inflight_ == 0, "ooc: in-flight writes left after the final drain");
  check(residency_.empty(), "ooc: resident CBs left after factorization");
  if (!store_) return stats_;  // in core: the ledger only

  const SpillStoreStats ss = store_->stats();
  stats_.io_retries = static_cast<index_t>(ss.io_retries);
  stats_.buffer_high_water_doubles =
      static_cast<count_t>(ss.buffer_high_water_bytes / sizeof(double));
  // Demand reloads block the compute thread, as do full-buffer appends
  // and (in synchronous mode) every write.
  stats_.stall_seconds += ss.read_seconds + ss.append_stall_seconds +
                          ss.flush_wait_seconds + ss.direct_write_seconds;
  if (config_.write_behind) {
    // Background-write time the compute threads did not wait out: the
    // I/O thread's busy time less the part of it during which at least
    // one of them was blocked on it.
    stats_.overlap_seconds =
        std::max(0.0, ss.write_busy_seconds - ss.waited_write_seconds);
  } else {
    stats_.stall_seconds += ss.write_busy_seconds;
    stats_.overlap_seconds = 0;
  }
  obs::record_ooc_exec_stats(stats_);
  return stats_;
}

void ensure_factors_resident(const Factorization& fact) {
  const std::shared_ptr<OocFactorState>& st = fact.ooc_factors;
  if (!st) return;
  std::lock_guard<std::mutex> lock(st->mu);
  if (!st->on_disk) return;
  MEMFRONT_SPAN("ooc.ensure_factors_resident");
  st->store->rethrow_pending_error();
  // Logically const: the reload restores the exact bytes the
  // factorization produced; the mutex serializes concurrent solvers.
  auto& nodes = const_cast<std::vector<NodeFactor>&>(fact.nodes);
  count_t reloaded = 0;
  // Straight into the factor storage, with no read-ahead: from the page
  // cache a direct read beats a read-ahead copy plus a memcpy.
  for (std::size_t i = 0; i < st->nodes.size(); ++i) {
    OocFactorState::NodeBlocks& nb = st->nodes[i];
    NodeFactor& nf = nodes[i];
    if (nb.panel >= 0) {
      nf.panel.resize(nb.panel_doubles);
      st->store->read(nb.panel, nf.panel.data(), nf.panel.size());
      reloaded += static_cast<count_t>(nb.panel_doubles);
    }
    if (nb.u12 >= 0) {
      nf.u12.resize(nb.u12_doubles);
      st->store->read(nb.u12, nf.u12.data(), nf.u12.size());
      reloaded += static_cast<count_t>(nb.u12_doubles);
    }
  }
  st->on_disk = false;
  obs::MetricsRegistry::global()
      .counter("solver.ooc.factor_reload_bytes")
      .add(obs::doubles_to_bytes(reloaded));
}

}  // namespace memfront
