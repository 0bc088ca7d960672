// The parallel scheduling engine.
//
// Replays the MUMPS execution model of Section 3 on the discrete-event
// machine: per-processor pools of statically assigned tasks, asynchronous
// type-2 master/slave fronts, a 2D block-cyclic type-3 root, contribution
// blocks resident on their producers until the parent assembles, and
// asynchronously broadcast memory/workload/subtree/prediction state.
//
// The engine owns the *mechanism* — processor state, the event loop,
// memory accounting, completion bookkeeping. Every *decision* (task
// dispatch, slave selection, memory admission) is delegated to a
// SchedulerPolicy (core/policy.hpp), and all disk traffic to an OocEngine
// (ooc/engine.hpp); `simulate_parallel_factorization` is a thin driver
// that wires the three together. Tests construct the engine with a mock
// policy to audit exactly where it is consulted.
//
// The event loop is allocation-free: every continuation is a SimEvent — a
// trivially copyable tagged union of the engine's concrete continuation
// shapes (task completions, factor-retire rests, urgent deliveries,
// message arrivals, wake-ups, disk landings) — stored inline in the event
// queue's slab and dispatched by one switch. Hot bookkeeping is
// incremental: the pending-master prediction is maintained on pool
// push/take instead of rescanning the pool, and per-node/per-processor
// piece lists use small-buffer storage (support/inline_vec.hpp).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "memfront/core/parallel_factor.hpp"
#include "memfront/core/policy.hpp"
#include "memfront/core/task_pool.hpp"
#include "memfront/frontal/block_cyclic.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/ooc/engine.hpp"
#include "memfront/sim/event_queue.hpp"
#include "memfront/sim/machine.hpp"
#include "memfront/support/inline_vec.hpp"

namespace memfront {

class Engine final : public PolicyHost, public OocHost {
 public:
  /// `policy == nullptr` builds the policy the config names
  /// (make_policy); a caller-supplied policy is consulted instead and
  /// must outlive the engine.
  Engine(const AssemblyTree& tree, const StaticMapping& mapping,
         const std::vector<index_t>& traversal, const SchedConfig& config,
         Trace* trace = nullptr, SchedulerPolicy* policy = nullptr);

  ParallelResult run();

  // ---- PolicyHost ----------------------------------------------------------
  index_t nprocs() const override { return nprocs_; }
  const AnnouncedState& announced(index_t q) const override {
    return procs_[static_cast<std::size_t>(q)].announced;
  }
  count_t activation_entries(index_t node) const override;
  bool in_subtree(index_t node) const override {
    return mapping_.subtrees.in_subtree(node);
  }

  // ---- OocHost -------------------------------------------------------------
  double now() const override { return queue_.now(); }
  void schedule_io(double t, const OocLanding& landing) override {
    SimEvent ev;
    ev.type = SimEvent::Type::kOocLanding;
    ev.ooc = landing;
    queue_.schedule(t, EventKind::kIo, ev);
  }
  count_t stack(index_t p) const override {
    return procs_[static_cast<std::size_t>(p)].stack;
  }
  void release(index_t p, count_t entries) override;
  void announce_mem(index_t p, count_t delta) override;
  count_t resident_entries(index_t node, index_t p) const override;
  void mark_spilled(index_t node, index_t p) override;
  OocProcStats& ooc_stats(index_t p) override {
    return procs_[static_cast<std::size_t>(p)].result.ooc;
  }
  void record_io(double time, double finish, index_t p, count_t entries,
                 TraceIo kind) override {
    if (trace_) trace_->record_io(time, finish, p, entries, kind);
    MEMFRONT_INSTANT(trace_io_name(kind), entries);
  }

 private:
  /// One in-flight piece of work with priority over the pool: a received
  /// type-2 slave block or a type-3 root share.
  struct UrgentTask {
    index_t node = kNone;
    count_t entries = 0;      // block size held on the stack
    count_t factor_part = 0;  // portion that moves to the factors at the end
    count_t flops = 0;
    bool root_share = false;
  };

  /// A scheduled continuation: the tagged union the event queue stores
  /// inline and Engine::dispatch switches over. One struct covers all
  /// shapes (the union of their fields is small); `type` says which
  /// fields are live.
  struct SimEvent {
    enum class Type : unsigned char {
      kWake,          // proc
      kStartType3,    // node
      kUrgentDone,    // proc, task — urgent compute finished
      kUrgentRest,    // proc, task — after the factor write-back stall
      kType1Done,     // proc, node
      kType1Rest,     // proc, node
      kType2Done,     // proc, node, entries = master part
      kType2Rest,     // proc, node, entries = master part
      kSlaveArrive,   // proc, task — slave block landed on proc
      kRootArrive,    // proc, task — root share landed on proc
      kUrgentDeliver, // proc, task — after the receive-admission stall
      kChildDone,     // node = parent being notified
      kOocLanding,    // ooc — a disk write completed
    };
    Type type = Type::kWake;
    index_t proc = kNone;
    index_t node = kNone;
    count_t entries = 0;
    UrgentTask task{};
    OocLanding ooc{};
  };
  using Queue = EventQueue<SimEvent>;

  /// A subtree currently in progress on a processor.
  struct SubtreeWatch {
    index_t sid = kNone;
    // Projected peak: stack at subtree start + standalone subtree peak.
    count_t projected = 0;
  };

  struct Proc {
    TaskPool pool;
    std::deque<UrgentTask> urgent;
    bool busy = false;
    count_t stack = 0;
    count_t peak = 0;
    AnnouncedState announced;
    InlineVec<SubtreeWatch, 4> active_subtrees;
    // Activation costs of the ready upper-part tasks in the pool, sorted
    // ascending — the Section 5.1 pending-master prediction is its back,
    // maintained incrementally on pool push/take (no pool rescans).
    std::vector<count_t> upper_costs;
    ProcResult result;
  };

  /// One contribution block resident on (or spilled from) a processor.
  struct CbPiece {
    index_t proc = kNone;
    count_t entries = 0;
    bool spilled = false;
  };

  struct NodeState {
    index_t children_remaining = 0;
    index_t parts_remaining = 0;  // type-2: master+slaves; type-3: grid size
    bool completed = false;
    InlineVec<CbPiece, 2> cb_pieces;
  };

  // ---- state helpers -------------------------------------------------------
  double delay() const { return cfg_.machine.info_delay; }
  bool ooc_on() const { return ooc_.has_value(); }
  void alloc(index_t p, count_t entries, PeakCause cause, index_t node);
  void announce_load(index_t p, count_t delta);
  double admit(index_t p, count_t incoming) {
    return policy_->admit(p, incoming);
  }
  CbPiece& find_piece(index_t node, index_t p);
  const CbPiece& find_piece(index_t node, index_t p) const;
  void track_resident_cb(index_t p, index_t node);
  /// Factors leave the stack: streamed to disk in OOC mode, released
  /// in-core otherwise. Returns the stall the completion must absorb
  /// (write-behind buffer full; always 0 in-core and in sync OOC mode).
  double retire_factors(index_t p, count_t entries);
  bool upper_part(index_t node) const {
    return !mapping_.subtrees.in_subtree(node);
  }
  /// Pool mutations keep the sorted upper-part cost list in sync, so the
  /// pending-master broadcast is O(1) instead of an O(pool) rescan.
  void pool_push(index_t p, index_t node);
  index_t pool_take(index_t p, std::size_t position);
  void refresh_pending_master(index_t p);
  count_t ready_cost(index_t node) const;

  // ---- the event loop ------------------------------------------------------
  void dispatch(const SimEvent& ev);
  void initialize();
  void wake(index_t p);
  void start_urgent(index_t p);
  void activate_from_pool(index_t p);

  enum class CbPhase {
    kChainOnly,    // chain-link children: freed *before* the new allocation
                   // (their storage is reused in place, Section 6)
    kNonChainOnly  // ordinary children: freed after the front exists
  };
  double consume_children(index_t parent, index_t assembler, CbPhase phase);
  void activate_type1(index_t p, index_t node);
  void activate_type2(index_t p, index_t node);
  std::vector<count_t> root_shares(index_t node) const;
  void start_type3(index_t node);

  // ---- event continuations (the switch cases of dispatch) ------------------
  void urgent_done(index_t p, const UrgentTask& task);
  void urgent_rest(index_t p, const UrgentTask& task);
  void type1_done(index_t p, index_t node);
  void type1_rest(index_t p, index_t node);
  void type2_done(index_t p, index_t node, count_t master_mem);
  void type2_rest(index_t p, index_t node, count_t master_mem);
  void slave_arrive(index_t q, const UrgentTask& task);
  void root_arrive(index_t q, const UrgentTask& task);
  void urgent_deliver(index_t q, const UrgentTask& task);
  void child_done(index_t parent);

  // ---- completion bookkeeping ----------------------------------------------
  void part_done(index_t node);
  void node_complete(index_t node, index_t reporter);
  void node_ready(index_t node);
  ParallelResult finalize();

  const AssemblyTree& tree_;
  const StaticMapping& mapping_;
  const std::vector<index_t>& traversal_;
  SchedConfig cfg_;
  Machine machine_;
  Trace* trace_;
  index_t nprocs_;
  Queue queue_;
  BlockCyclicLayout grid_;
  std::optional<OocEngine> ooc_;
  std::unique_ptr<SchedulerPolicy> owned_policy_;
  SchedulerPolicy* policy_ = nullptr;
  std::vector<Proc> procs_;
  std::vector<NodeState> nodes_;
  index_t completed_ = 0;
  index_t type2_nodes_ = 0;
};

}  // namespace memfront
