// Budget admission and contribution-block residency of every real
// factorization.
//
// One OocCoordinator serves every worker of a factorization, in core
// and out of core alike: in core is the unlimited budget. It owns the
// global charged-bytes ledger (resident CBs + live fronts + in-flight
// writes), the CB state machine
//
//     (none) -> kResident -> kInFlight -> kOnDisk -> kResident -> ...
//                   \______________ freed when the parent consumed it
//
// and the SpillStore that moves blocks. Admission is reservation-based:
// begin_node() admits the node's whole degraded window up front — the
// front scratch plus one column panel (spills split large CBs into
// kOocCbPanels panels), enough for any single step of the node's
// processing. Inside the window, assemble_child() consumes the
// children one at a time — a resident child scatters in place and
// frees; a spilled one streams back block by block with the panel
// buffer covered by the reservation — and store_cb() tries to admit
// the node's own CB whole (an extra, non-blocking request), degrading
// to a streamed panel-by-panel synchronous write straight from the
// live front when it cannot fit. A node's coexistence window is
// therefore its front plus at most one whole CB — one *panel* under
// pressure — far below the in-core LIFO peak (front + all children
// stacked), which is what lets budgets smaller than the in-core peak
// run to completion. predict_min_ooc_budget is exactly the
// reserved window maximized over the tree. When an admission does not
// fit, it evicts unpinned resident CBs largest-first through
// choose_spill_victims, the simulator's default victim selection. Only
// begin_node, whose caller holds no memory yet, ever *waits* for
// in-flight writes to land or another mid-node worker to release; every
// admission a worker issues between begin and end is covered by its
// reservation or degrades to an uncharged synchronous write, so workers
// holding memory always run to end_node and admission waits cannot deadlock —
// collectively or cyclically. That wait is the scheduler's
// (OocSchedHooks::wait), at one worker as at many: the waiter helps the
// running fronts' trailing updates until a release is reported. begin_node
// declares the budget infeasible (structured kResourceExhausted, or a
// recorded overrun under allow_overrun) only when nothing is
// spillable, nothing is in flight, and no worker is mid-node.
//
// In core (config.enabled false, whatever budget_doubles holds) the
// budget is unlimited: nothing spills or streams, so begin_node
// reserves no window beyond the front and the ledger charges exactly
// the LIFO discipline (numeric_factorize's peak equals
// predict_arena_peak).
// No SpillStore, file or I/O thread exists, and the driver installs no
// scheduler hooks, so nothing ever waits. An enabled run at budget 0 is
// unlimited too, but still streams its factor panels to disk.
//
// Spill files: the store holds two files per worker, one per block
// lifetime. File w takes worker w's CB blocks (evictions and streamed
// extractions), which every parent reloads and drops; file workers + w
// takes its factor panels, which live until the solve. finish()
// discards the CB files before the final flush, so their dead pages
// are dropped instead of written back.
//
// Locking protocol: the coordinator mutex is never held across a
// SpillStore call that can block (append/read/flush/discard) — store
// landings re-enter the coordinator from the I/O thread — nor across a
// call into the scheduler, except the lock-free `charged` hook. Fault
// determinism: all disk fault sites key on the block's tree node, so a
// chaos schedule fires on the same blocks regardless of worker
// interleaving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "memfront/frontal/kernels.hpp"
#include "memfront/ooc/config.hpp"
#include "memfront/ooc/store.hpp"
#include "memfront/symbolic/assembly_tree.hpp"

namespace memfront {

struct NodeFactor;

/// Callbacks into the dynamic worker-pool scheduler (solver/scheduler).
/// `admit` consults the SchedulerPolicy ahead of every reservation
/// admission — called with no coordinator lock held (the scheduler
/// takes its own mutex inside); the returned stall is a model quantity
/// folded into the stats, the coordinator's own gate does the real
/// waiting. `charged` mirrors a worker's reservation charge (+delta) /
/// release (-delta) so the policy host's announced memory tracks
/// in-flight OOC reservations; it must be lock-free (atomics only), as
/// it runs under the coordinator mutex.
///
/// The memory wait. The coordinator numbers its releases (charge
/// releases, landings, spill publications, store_cb, end_node, cancel)
/// with a release epoch and reports each one through `released(epoch)`
/// after dropping its mutex. `wait(worker, seen)` is a begin_node
/// admission wait: it returns once a release past `seen` (read under
/// the coordinator mutex) was reported, or the run failed, and the
/// worker may run other fronts' work meanwhile; it returns the seconds
/// spent on that work, which are not stall. Install both or neither;
/// a budgeted run must install them, as the coordinator has no wait of
/// its own.
struct OocSchedHooks {
  std::function<double(index_t worker, index_t node, count_t window_doubles)>
      admit;
  std::function<void(index_t worker, count_t delta)> charged;
  std::function<double(index_t worker, std::uint64_t seen)> wait;
  std::function<void(std::uint64_t epoch)> released;
};

/// Where a factorization's panels went: kept by the Factorization so
/// solve (or an explicit ensure_factors_resident call) can bring them
/// back. The store outlives the coordinator through this handle; its
/// spill files die with the last Factorization copy.
struct OocFactorState {
  struct NodeBlocks {
    SpillStore::BlockId panel = -1;  // -1: still resident / empty
    SpillStore::BlockId u12 = -1;
    std::size_t panel_doubles = 0;
    std::size_t u12_doubles = 0;
  };
  std::shared_ptr<SpillStore> store;
  std::vector<NodeBlocks> nodes;
  std::mutex mu;          // serializes concurrent reload attempts
  bool on_disk = false;   // any panel currently only on disk
};

class OocCoordinator {
 public:
  OocCoordinator(const OocExecConfig& config, const AssemblyTree& tree,
                 index_t workers);
  ~OocCoordinator();
  OocCoordinator(const OocCoordinator&) = delete;
  OocCoordinator& operator=(const OocCoordinator&) = delete;

  /// Installs the scheduler callbacks. Call before the workers start
  /// (unsynchronized with begin_node/end_node otherwise).
  void set_sched_hooks(OocSchedHooks hooks) { sched_hooks_ = std::move(hooks); }

  /// Admits node i's whole degraded window — front scratch plus one
  /// column panel — under the budget (spilling / stalling as needed);
  /// charged until end_node. The only admission that may wait: its
  /// caller holds no memory yet. Also warms the read-ahead toward the
  /// node's first spilled child so the reload overlaps the
  /// original-entry assembly.
  void begin_node(index_t node, index_t worker);

  /// Scatters one child CB into the front through `positions` (the
  /// extend_add_mapped map) and releases it. A resident child scatters
  /// in place; a spilled one streams back block by block, the single
  /// panel buffer covered by the node's reservation. `next` — the
  /// sibling consumed after this one, or kNone — chains the read-ahead
  /// so its first block loads behind the current scatter.
  /// numeric_detail::factor_node calls this in the tree's child order,
  /// so where a CB lived never changes the assembled bits.
  void assemble_child(index_t child, index_t next, FrontView front,
                      std::span<const index_t> positions);

  /// Extracts and keeps node i's own CB (the Schur block of its
  /// factored front, front.n - npiv columns) under the budget: the
  /// whole CB resident when admissible without waiting, otherwise
  /// written to disk synchronously one column panel at a time straight
  /// from the live front (the CB is born spilled; the panel buffer
  /// rides the reservation). Call after the children were consumed —
  /// the extraction window of the LIFO discipline. A failed allocation
  /// of the resident copy (fault site `coordinator.cb_alloc`, keyed on
  /// the node, or a real bad_alloc) throws kResourceExhausted.
  void store_cb(index_t node, index_t worker, FrontView front, index_t npiv);

  /// Releases the node's reservation and streams the finished factor
  /// panel to disk (when spill_factors): small panels ride the
  /// write-behind buffer when their charge fits without waiting,
  /// oversized or non-admissible ones write synchronously straight
  /// from the factor storage (uncharged).
  void end_node(index_t node, NodeFactor& nf, index_t worker);

  /// Wakes every admission waiter with a failure after another worker
  /// died — without it they would wait forever for memory that the
  /// dead worker can no longer free.
  void cancel();

  /// Drains in-flight writes, verifies the ledger is empty, folds the
  /// store's counters and reports the obs metrics (out of core only).
  /// Call once, after the last end_node.
  OocExecStats finish();

  /// Where the factor panels went; null unless config.enabled and
  /// spill_factors are both set.
  std::shared_ptr<OocFactorState> factor_state() const { return factors_; }

 private:
  enum class CbState : unsigned char { kNone, kResident, kInFlight,
                                       kOnDisk };
  struct Cb {
    CbState state = CbState::kNone;
    std::vector<double> data;
    std::size_t doubles = 0;
    int pins = 0;
    /// On disk: the CB's spill blocks in column order (one per panel).
    std::vector<SpillStore::BlockId> blocks;
  };

  bool try_admit_locked(std::unique_lock<std::mutex>& lock, count_t need,
                        index_t node, index_t worker, bool may_wait);
  void admit_locked(std::unique_lock<std::mutex>& lock, count_t need,
                    index_t node, index_t worker);
  [[noreturn]] void throw_infeasible_locked(count_t need, index_t node);
  count_t reserve_doubles(index_t node) const;
  void prefetch_locked(index_t node);
  std::vector<SpillStore::BlockId> append_cb_blocks(index_t worker,
                                                    index_t node, index_t n,
                                                    std::vector<double> data);
  void on_landing(SpillStore::BlockId id, index_t node, std::size_t bytes,
                  bool ok);
  void charge_locked(count_t doubles);
  /// Numbers a release and wakes assemble_child's waiters on a spilled
  /// CB's block list; the caller reports the returned epoch through
  /// released() once it has dropped mu_.
  std::uint64_t note_release_locked();
  void released(std::uint64_t epoch);
  index_t cb_file(index_t worker) const { return worker; }
  index_t factor_file(index_t worker) const { return workers_ + worker; }

  const AssemblyTree& tree_;
  OocExecConfig config_;
  index_t workers_ = 1;
  count_t budget_ = 0;
  std::shared_ptr<SpillStore> store_;
  std::shared_ptr<OocFactorState> factors_;
  OocSchedHooks sched_hooks_;

  std::mutex mu_;
  std::condition_variable cv_;       // a spilled CB's block list landed
  std::vector<Cb> cbs_;
  std::vector<index_t> residency_;   // resident CBs in push order
  count_t charged_ = 0;              // resident + fronts + in-flight
  count_t inflight_ = 0;             // subset of charged_: queued writes
  index_t mid_node_ = 0;             // workers between begin and end
  std::uint64_t release_epoch_ = 0;  // releases numbered so far
  bool cancelled_ = false;
  OocExecStats stats_;
};

}  // namespace memfront
