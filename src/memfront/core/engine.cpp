#include "memfront/core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"

namespace memfront {

const char* peak_cause_name(PeakCause cause) {
  switch (cause) {
    case PeakCause::kNone: return "none";
    case PeakCause::kType1Front: return "type1-front";
    case PeakCause::kType2Master: return "type2-master";
    case PeakCause::kSlaveBlock: return "slave-block";
    case PeakCause::kRootShare: return "root-share";
    case PeakCause::kContribution: return "contribution-block";
  }
  return "?";
}

Engine::Engine(const AssemblyTree& tree, const StaticMapping& mapping,
               const std::vector<index_t>& traversal,
               const SchedConfig& config, Trace* trace,
               SchedulerPolicy* policy)
    : tree_(tree),
      mapping_(mapping),
      traversal_(traversal),
      cfg_(config),
      machine_(config.machine),
      trace_(trace),
      nprocs_(config.machine.nprocs) {
  check(nprocs_ >= 1, "simulate: need at least one processor");
  procs_.resize(static_cast<std::size_t>(nprocs_));
  nodes_.resize(static_cast<std::size_t>(tree.num_nodes()));
  grid_ = choose_grid(nprocs_);
  if (cfg_.ooc.enabled) ooc_.emplace(cfg_.ooc, nprocs_, *this);
  if (policy) {
    policy_ = policy;
  } else {
    owned_policy_ = make_policy(cfg_, *this, ooc_ ? &*ooc_ : nullptr);
    policy_ = owned_policy_.get();
  }
}

ParallelResult Engine::run() {
  MEMFRONT_SPAN("sim_run");
  const auto wall_t0 = std::chrono::steady_clock::now();
  initialize();
  Queue::Event ev;
  while (queue_.pop(ev)) dispatch(ev.payload);
  ParallelResult result = finalize();
  obs::record_sim_result(
      result, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_t0)
                  .count());
  return result;
}

void Engine::dispatch(const SimEvent& ev) {
  switch (ev.type) {
    case SimEvent::Type::kWake: wake(ev.proc); return;
    case SimEvent::Type::kStartType3: start_type3(ev.node); return;
    case SimEvent::Type::kUrgentDone: urgent_done(ev.proc, ev.task); return;
    case SimEvent::Type::kUrgentRest: urgent_rest(ev.proc, ev.task); return;
    case SimEvent::Type::kType1Done: type1_done(ev.proc, ev.node); return;
    case SimEvent::Type::kType1Rest: type1_rest(ev.proc, ev.node); return;
    case SimEvent::Type::kType2Done:
      type2_done(ev.proc, ev.node, ev.entries);
      return;
    case SimEvent::Type::kType2Rest:
      type2_rest(ev.proc, ev.node, ev.entries);
      return;
    case SimEvent::Type::kSlaveArrive: slave_arrive(ev.proc, ev.task); return;
    case SimEvent::Type::kRootArrive: root_arrive(ev.proc, ev.task); return;
    case SimEvent::Type::kUrgentDeliver:
      urgent_deliver(ev.proc, ev.task);
      return;
    case SimEvent::Type::kChildDone: child_done(ev.node); return;
    case SimEvent::Type::kOocLanding: ooc_->on_landing(ev.ooc); return;
  }
  check(false, "simulate: unknown event type");
}

// ---- state helpers ---------------------------------------------------------

void Engine::alloc(index_t p, count_t entries, PeakCause cause, index_t node) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  proc.stack += entries;
  if (proc.stack > proc.peak) {
    proc.peak = proc.stack;
    proc.result.peak_cause = cause;
    proc.result.peak_node = node;
    proc.result.peak_in_subtree =
        node != kNone && mapping_.subtrees.in_subtree(node);
    proc.result.peak_time = now();
  }
  if (trace_) trace_->record(now(), p, proc.stack);
}

void Engine::release(index_t p, count_t entries) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  proc.stack -= entries;
  check(proc.stack >= 0, "simulate: negative stack");
  if (trace_) trace_->record(now(), p, proc.stack);
}

void Engine::announce_mem(index_t p, count_t delta) {
  procs_[static_cast<std::size_t>(p)].announced.memory.add(now(), delta);
}

void Engine::announce_load(index_t p, count_t delta) {
  procs_[static_cast<std::size_t>(p)].announced.workload.add(now(), delta);
}

const Engine::CbPiece& Engine::find_piece(index_t node, index_t p) const {
  for (const CbPiece& piece : nodes_[static_cast<std::size_t>(node)].cb_pieces)
    if (piece.proc == p) return piece;
  check(false, "simulate: resident cb piece not found");
  return nodes_[static_cast<std::size_t>(node)].cb_pieces.front();
}

Engine::CbPiece& Engine::find_piece(index_t node, index_t p) {
  return const_cast<CbPiece&>(std::as_const(*this).find_piece(node, p));
}

count_t Engine::resident_entries(index_t node, index_t p) const {
  return find_piece(node, p).entries;
}

void Engine::mark_spilled(index_t node, index_t p) {
  find_piece(node, p).spilled = true;
}

void Engine::track_resident_cb(index_t p, index_t node) {
  if (ooc_on()) ooc_->track_resident(p, node);
}

double Engine::retire_factors(index_t p, count_t entries) {
  if (ooc_on()) return ooc_->write_back_factors(p, entries);
  release(p, entries);
  announce_mem(p, -entries);
  return 0.0;
}

count_t Engine::activation_entries(index_t node) const {
  switch (mapping_.type[static_cast<std::size_t>(node)]) {
    case NodeType::kType1: return tree_.front_entries(node);
    case NodeType::kType2: return tree_.master_entries(node);
    case NodeType::kType3:
      return max_entries_per_process(grid_, tree_.nfront(node));
  }
  return 0;
}

void Engine::pool_push(index_t p, index_t node) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  proc.pool.push(node);
  if (upper_part(node)) {
    const count_t cost = activation_entries(node);
    proc.upper_costs.insert(
        std::lower_bound(proc.upper_costs.begin(), proc.upper_costs.end(),
                         cost),
        cost);
  }
}

index_t Engine::pool_take(index_t p, std::size_t position) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  const index_t node = proc.pool.take(position);
  if (upper_part(node)) {
    // Any instance of the same cost is equivalent in the multiset.
    const count_t cost = activation_entries(node);
    const auto it = std::lower_bound(proc.upper_costs.begin(),
                                     proc.upper_costs.end(), cost);
    check(it != proc.upper_costs.end() && *it == cost,
          "simulate: pending-master cost list out of sync");
    proc.upper_costs.erase(it);
  }
  return node;
}

void Engine::refresh_pending_master(index_t p) {
  // Re-broadcasts the cost of the largest ready upper-part task in p's
  // pool (the Section 5.1 prediction) — the back of the incrementally
  // maintained cost list; History::set ignores no-op updates, so the
  // broadcast only fires when the maximum actually moved.
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  proc.announced.pending_master.set(
      now(), proc.upper_costs.empty() ? 0 : proc.upper_costs.back());
}

// ---- initialization --------------------------------------------------------

void Engine::initialize() {
  // Children counters and initial leaf pools.
  for (index_t i = 0; i < tree_.num_nodes(); ++i)
    nodes_[static_cast<std::size_t>(i)].children_remaining =
        static_cast<index_t>(tree_.children(i).size());

  // Initial workload: the cost of all the processor's subtrees
  // (Section 3), announced at t=0.
  const Subtrees& st = mapping_.subtrees;
  for (std::size_t s = 0; s < st.roots.size(); ++s)
    announce_load(st.proc[s], st.flops[s]);

  // Leaves enter their owner's pool in reverse traversal order, so the
  // stack discipline reproduces the (Liu-ordered) depth-first traversal
  // and leaves of one subtree stay contiguous (Figure 7).
  for (auto it = traversal_.rbegin(); it != traversal_.rend(); ++it) {
    const index_t node = *it;
    if (!tree_.children(node).empty()) continue;
    if (mapping_.type[static_cast<std::size_t>(node)] == NodeType::kType3) {
      // Degenerate: a leaf root. Start it directly.
      SimEvent ev;
      ev.type = SimEvent::Type::kStartType3;
      ev.node = node;
      queue_.schedule(0.0, EventKind::kGeneric, ev);
      continue;
    }
    const index_t owner = mapping_.owner[static_cast<std::size_t>(node)];
    pool_push(owner, node);
    if (upper_part(node)) announce_load(owner, ready_cost(node));
  }
  for (index_t p = 0; p < nprocs_; ++p) {
    refresh_pending_master(p);
    SimEvent ev;
    ev.type = SimEvent::Type::kWake;
    ev.proc = p;
    queue_.schedule(0.0, EventKind::kGeneric, ev);
  }
}

// ---- processor main loop ---------------------------------------------------

void Engine::wake(index_t p) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  if (proc.busy) return;
  if (!proc.urgent.empty()) {
    start_urgent(p);
    return;
  }
  if (!proc.pool.empty()) activate_from_pool(p);
}

void Engine::start_urgent(index_t p) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  UrgentTask task = proc.urgent.front();
  proc.urgent.pop_front();
  proc.busy = true;
  const double dur = machine_.compute_time(task.flops);
  proc.result.busy_time += dur;
  proc.result.flops_done += task.flops;
  ++proc.result.slave_tasks_run;
  SimEvent ev;
  ev.type = SimEvent::Type::kUrgentDone;
  ev.proc = p;
  ev.task = task;
  queue_.schedule_after(dur, EventKind::kCompute, ev);
}

void Engine::urgent_done(index_t p, const UrgentTask& task) {
  // The factor part leaves the stack (in OOC mode: streams to disk
  // first); a slave's contribution rows stay until the parent
  // assembles them.
  const double stall = retire_factors(p, task.factor_part);
  if (stall > 0) {
    SimEvent ev;
    ev.type = SimEvent::Type::kUrgentRest;
    ev.proc = p;
    ev.task = task;
    queue_.schedule_after(stall, EventKind::kGeneric, ev);
  } else {
    urgent_rest(p, task);
  }
}

void Engine::urgent_rest(index_t p, const UrgentTask& task) {
  procs_[static_cast<std::size_t>(p)].result.factor_entries +=
      task.factor_part;
  const count_t cb_part = task.entries - task.factor_part;
  if (cb_part > 0) {
    nodes_[static_cast<std::size_t>(task.node)].cb_pieces.push_back(
        {p, cb_part, false});
    track_resident_cb(p, task.node);
  }
  announce_load(p, -task.flops);
  part_done(task.node);
  procs_[static_cast<std::size_t>(p)].busy = false;
  wake(p);
}

void Engine::activate_from_pool(index_t p) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  count_t projected = proc.stack;
  for (const auto& [sid, proj] : proc.active_subtrees)
    projected = std::max(projected, proj);
  const TaskQuery query{
      .proc = p,
      .pool = proc.pool.tasks(),
      .projected_memory = projected,
      .observed_peak = proc.peak,
      .spill_budget = 0,
  };
  const std::size_t position = policy_->select_task(query);
  const index_t node = pool_take(p, position);
  refresh_pending_master(p);
  ++proc.result.tasks_run;

  // Subtree bookkeeping: first task of a subtree announces its peak
  // (Section 5.1); the announcement is withdrawn when the subtree root
  // completes.
  const index_t sid =
      mapping_.subtrees.node_subtree[static_cast<std::size_t>(node)];
  if (sid != kNone) {
    const bool already =
        std::any_of(proc.active_subtrees.begin(), proc.active_subtrees.end(),
                    [sid](const auto& e) { return e.sid == sid; });
    if (!already) {
      const count_t peak = mapping_.subtrees.peak[static_cast<std::size_t>(sid)];
      proc.active_subtrees.push_back({sid, proc.stack + peak});
      proc.announced.subtree_peak.add(now(), peak);
    }
  }

  if (mapping_.type[static_cast<std::size_t>(node)] == NodeType::kType2)
    activate_type2(p, node);
  else
    activate_type1(p, node);
}

double Engine::consume_children(index_t parent, index_t assembler,
                                CbPhase phase) {
  // Frees the children's contribution blocks (wherever they live) and
  // returns the extra time the remote transfers — and, in OOC mode, the
  // reloads of spilled blocks — cost the assembling task.
  double extra = 0.0;
  for (index_t child : tree_.children(parent)) {
    if (tree_.is_chain_link(child) != (phase == CbPhase::kChainOnly))
      continue;
    for (const CbPiece& piece :
         nodes_[static_cast<std::size_t>(child)].cb_pieces) {
      const index_t q = piece.proc;
      const count_t entries = piece.entries;
      double path = 0.0;
      if (piece.spilled) {
        // Reread from q's disk; the block streams straight into the
        // parent's front (already allocated), no in-core staging.
        path = ooc_->reload(q, entries);
      } else {
        release(q, entries);
        announce_mem(q, -entries);
        if (ooc_on()) ooc_->forget_resident(q, child);
      }
      if (q != assembler) {
        machine_.count_message(entries);
        path += machine_.transfer_time(entries);
      }
      extra = std::max(extra, path);
    }
    nodes_[static_cast<std::size_t>(child)].cb_pieces.clear();
  }
  return extra;
}

void Engine::activate_type1(index_t p, index_t node) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  proc.busy = true;
  double transfer = consume_children(node, p, CbPhase::kChainOnly);
  const double stall = admit(p, tree_.front_entries(node));
  alloc(p, tree_.front_entries(node), PeakCause::kType1Front, node);
  announce_mem(p, tree_.front_entries(node));
  transfer += consume_children(node, p, CbPhase::kNonChainOnly);
  const double dur = stall + transfer +
                     machine_.assemble_time(tree_.front_entries(node)) +
                     machine_.compute_time(tree_.flops(node));
  proc.result.busy_time += dur - stall;
  proc.result.flops_done += tree_.flops(node);
  SimEvent ev;
  ev.type = SimEvent::Type::kType1Done;
  ev.proc = p;
  ev.node = node;
  queue_.schedule_after(dur, EventKind::kCompute, ev);
}

void Engine::type1_done(index_t p, index_t node) {
  const count_t cb = tree_.cb_entries(node);
  double wb_stall = 0.0;
  if (ooc_on()) {
    // The front splits in place: the cb part stays on the stack as
    // this node's contribution block, the factor part stays until
    // its disk write lands (write-behind: moves to the I/O buffer
    // now); front = factors + cb exactly.
    wb_stall = retire_factors(p, tree_.factor_entries(node));
    if (cb > 0) {
      nodes_[static_cast<std::size_t>(node)].cb_pieces.push_back(
          {p, cb, false});
      track_resident_cb(p, node);
    }
  } else {
    release(p, tree_.front_entries(node));
    announce_mem(p, -tree_.front_entries(node));
    if (cb > 0) {
      alloc(p, cb, PeakCause::kContribution, node);
      announce_mem(p, cb);
      nodes_[static_cast<std::size_t>(node)].cb_pieces.push_back(
          {p, cb, false});
    }
  }
  if (wb_stall > 0) {
    SimEvent ev;
    ev.type = SimEvent::Type::kType1Rest;
    ev.proc = p;
    ev.node = node;
    queue_.schedule_after(wb_stall, EventKind::kGeneric, ev);
  } else {
    type1_rest(p, node);
  }
}

void Engine::type1_rest(index_t p, index_t node) {
  procs_[static_cast<std::size_t>(p)].result.factor_entries +=
      tree_.factor_entries(node);
  announce_load(p, -tree_.flops(node));
  node_complete(node, p);
  procs_[static_cast<std::size_t>(p)].busy = false;
  wake(p);
}

void Engine::activate_type2(index_t p, index_t node) {
  Proc& proc = procs_[static_cast<std::size_t>(p)];
  proc.busy = true;
  ++type2_nodes_;
  const bool sym = tree_.symmetric();
  const index_t nfront = tree_.nfront(node);
  const index_t npiv = tree_.npiv(node);
  const count_t master_mem = tree_.master_entries(node);
  double transfer = consume_children(node, p, CbPhase::kChainOnly);
  const double stall = admit(p, master_mem);
  alloc(p, master_mem, PeakCause::kType2Master, node);
  announce_mem(p, master_mem);
  transfer += consume_children(node, p, CbPhase::kNonChainOnly);

  // ---- dynamic slave selection (the heart of the paper) ----
  const count_t mflops = master_flops(nfront, npiv, sym);
  SlaveQuery query{
      .master = p,
      .node = node,
      .problem =
          SelectionProblem{
              .nfront = nfront,
              .npiv = npiv,
              .symmetric = sym,
              .max_slaves = cfg_.max_slaves > 0 ? cfg_.max_slaves
                                                : nprocs_ - 1,
              .min_rows_per_slave = cfg_.min_rows_per_slave,
          },
      .horizon = now() - delay(),
      // Rough per-slave block size, used only to price spill penalties.
      .est_share =
          (tree_.front_entries(node) - master_mem) /
          std::max<count_t>(
              1, std::min<count_t>(cfg_.max_slaves > 0 ? cfg_.max_slaves
                                                       : nprocs_ - 1,
                                   nprocs_ - 1)),
      .master_load = proc.announced.workload.current(),
      .master_task_flops = mflops,
  };
  std::vector<SlaveCandidate> candidates;
  candidates.reserve(static_cast<std::size_t>(nprocs_) - 1);
  for (index_t q = 0; q < nprocs_; ++q) {
    if (q == p) continue;
    candidates.push_back({q, policy_->slave_metric(q, query)});
  }
  std::vector<SlaveShare> shares;
  if (nprocs_ == 1 || candidates.empty()) {
    // No one to delegate to: the master handles the whole front.
    shares.push_back(SlaveShare{
        .proc = p,
        .row_start = 0,
        .rows = nfront - npiv,
        .entries = slave_block_entries(nfront, npiv, 0, nfront - npiv, sym),
        .flops = slave_flops(nfront, npiv, nfront - npiv, sym)});
  } else {
    shares = policy_->select_slaves(query, std::move(candidates));
  }
  check(!shares.empty(), "simulate: type-2 node with no slave shares");

  nodes_[static_cast<std::size_t>(node)].parts_remaining =
      static_cast<index_t>(shares.size()) + 1;
  for (const SlaveShare& share : shares) {
    const index_t q = share.proc;
    // The master's choice is announced immediately ("known as quickly as
    // possible by the others"); the block is physically allocated on the
    // slave when the task message arrives.
    announce_mem(q, share.entries);
    announce_load(q, share.flops);
    machine_.count_message(share.entries);
    // The task message carries the front's index list, not the data.
    const double arrival = q == p ? 0.0 : machine_.transfer_time(nfront);
    SimEvent ev;
    ev.type = SimEvent::Type::kSlaveArrive;
    ev.proc = q;
    ev.task = UrgentTask{.node = node,
                         .entries = share.entries,
                         .factor_part = static_cast<count_t>(share.rows) * npiv,
                         .flops = share.flops,
                         .root_share = false};
    queue_.schedule_after(arrival, EventKind::kMessage, ev);
  }

  const double dur = stall + transfer + machine_.assemble_time(master_mem) +
                     machine_.compute_time(mflops);
  proc.result.busy_time += dur - stall;
  proc.result.flops_done += mflops;
  SimEvent done;
  done.type = SimEvent::Type::kType2Done;
  done.proc = p;
  done.node = node;
  done.entries = master_mem;
  queue_.schedule_after(dur, EventKind::kCompute, done);
}

void Engine::slave_arrive(index_t q, const UrgentTask& task) {
  // Admission happens where the block lands; the receive is held
  // back while the slave makes room on disk.
  const double recv_stall = admit(q, task.entries);
  alloc(q, task.entries, PeakCause::kSlaveBlock, task.node);
  if (recv_stall > 0) {
    SimEvent ev;
    ev.type = SimEvent::Type::kUrgentDeliver;
    ev.proc = q;
    ev.task = task;
    queue_.schedule_after(recv_stall, EventKind::kGeneric, ev);
  } else {
    urgent_deliver(q, task);
  }
}

void Engine::urgent_deliver(index_t q, const UrgentTask& task) {
  procs_[static_cast<std::size_t>(q)].urgent.push_back(task);
  wake(q);
}

void Engine::type2_done(index_t p, index_t node, count_t master_mem) {
  // The fully-summed rows become factors.
  const double wb_stall = retire_factors(p, master_mem);
  if (wb_stall > 0) {
    SimEvent ev;
    ev.type = SimEvent::Type::kType2Rest;
    ev.proc = p;
    ev.node = node;
    ev.entries = master_mem;
    queue_.schedule_after(wb_stall, EventKind::kGeneric, ev);
  } else {
    type2_rest(p, node, master_mem);
  }
}

void Engine::type2_rest(index_t p, index_t node, count_t master_mem) {
  procs_[static_cast<std::size_t>(p)].result.factor_entries += master_mem;
  announce_load(p, -master_flops(tree_.nfront(node), tree_.npiv(node),
                                 tree_.symmetric()));
  part_done(node);
  procs_[static_cast<std::size_t>(p)].busy = false;
  wake(p);
}

std::vector<count_t> Engine::root_shares(index_t node) const {
  // Per-grid-process share of the type-3 root, normalized so the shares
  // sum exactly to the tree's front-entry model (triangular storage for
  // symmetric roots; the 2D block-cyclic raw counts are square).
  const index_t nfront = tree_.nfront(node);
  const index_t grid_procs = grid_.pr * grid_.pc;
  std::vector<count_t> raw(static_cast<std::size_t>(grid_procs), 0);
  count_t raw_total = 0;
  for (index_t g = 0; g < grid_procs; ++g) {
    raw[static_cast<std::size_t>(g)] =
        entries_on_process(grid_, nfront, g / grid_.pc, g % grid_.pc);
    raw_total += raw[static_cast<std::size_t>(g)];
  }
  const count_t total = tree_.front_entries(node);
  std::vector<count_t> shares(static_cast<std::size_t>(grid_procs), 0);
  count_t assigned = 0;
  for (index_t g = 0; g < grid_procs; ++g) {
    shares[static_cast<std::size_t>(g)] =
        raw_total > 0 ? raw[static_cast<std::size_t>(g)] * total / raw_total
                      : 0;
    assigned += shares[static_cast<std::size_t>(g)];
  }
  for (index_t g = 0; assigned < total; g = (g + 1) % grid_procs) {
    ++shares[static_cast<std::size_t>(g)];
    ++assigned;
  }
  return shares;
}

void Engine::start_type3(index_t node) {
  const index_t grid_procs = grid_.pr * grid_.pc;
  nodes_[static_cast<std::size_t>(node)].parts_remaining = grid_procs;
  consume_children(node, /*assembler=*/0, CbPhase::kChainOnly);
  consume_children(node, /*assembler=*/0, CbPhase::kNonChainOnly);
  const std::vector<count_t> shares = root_shares(node);
  const count_t flops_share =
      tree_.flops(node) / std::max<index_t>(1, grid_procs);
  for (index_t g = 0; g < grid_procs; ++g) {
    const index_t q = g;  // grid process g lives on processor g
    const count_t entries = shares[static_cast<std::size_t>(g)];
    machine_.count_message(entries);
    SimEvent ev;
    ev.type = SimEvent::Type::kRootArrive;
    ev.proc = q;
    ev.task = UrgentTask{.node = node,
                         .entries = entries,
                         .factor_part = entries,  // the whole root is factors
                         .flops = flops_share,
                         .root_share = true};
    queue_.schedule_after(machine_.params().latency, EventKind::kMessage, ev);
  }
}

void Engine::root_arrive(index_t q, const UrgentTask& task) {
  const double recv_stall = admit(q, task.entries);
  alloc(q, task.entries, PeakCause::kRootShare, task.node);
  announce_mem(q, task.entries);
  announce_load(q, task.flops);
  if (recv_stall > 0) {
    SimEvent ev;
    ev.type = SimEvent::Type::kUrgentDeliver;
    ev.proc = q;
    ev.task = task;
    queue_.schedule_after(recv_stall, EventKind::kGeneric, ev);
  } else {
    urgent_deliver(q, task);
  }
}

// ---- completion bookkeeping ------------------------------------------------

void Engine::part_done(index_t node) {
  NodeState& st = nodes_[static_cast<std::size_t>(node)];
  check(st.parts_remaining > 0, "simulate: spurious part completion");
  if (--st.parts_remaining == 0) {
    // Type-2: completion is detected by the master; type-3 by proc 0.
    const index_t reporter =
        mapping_.type[static_cast<std::size_t>(node)] == NodeType::kType3
            ? 0
            : mapping_.owner[static_cast<std::size_t>(node)];
    node_complete(node, reporter);
  }
}

void Engine::node_complete(index_t node, index_t reporter) {
  NodeState& st = nodes_[static_cast<std::size_t>(node)];
  check(!st.completed, "simulate: node completed twice");
  st.completed = true;
  ++completed_;

  // Withdraw the subtree announcement when its root finishes.
  const index_t sid =
      mapping_.subtrees.node_subtree[static_cast<std::size_t>(node)];
  if (sid != kNone &&
      mapping_.subtrees.roots[static_cast<std::size_t>(sid)] == node) {
    const index_t p = mapping_.subtrees.proc[static_cast<std::size_t>(sid)];
    Proc& proc = procs_[static_cast<std::size_t>(p)];
    auto it = std::find_if(proc.active_subtrees.begin(),
                           proc.active_subtrees.end(),
                           [sid](const auto& e) { return e.sid == sid; });
    if (it != proc.active_subtrees.end()) {
      proc.announced.subtree_peak.add(
          now(), -mapping_.subtrees.peak[static_cast<std::size_t>(sid)]);
      proc.active_subtrees.erase(it);
    }
  }

  const index_t parent = tree_.parent(node);
  if (parent == kNone) return;
  // Notify the processor in charge of the parent ("every processor
  // treating a child sends a message to the one in charge of the
  // parent", Section 5.1).
  const bool type3_parent =
      mapping_.type[static_cast<std::size_t>(parent)] == NodeType::kType3;
  const index_t owner =
      type3_parent ? 0 : mapping_.owner[static_cast<std::size_t>(parent)];
  if (owner == reporter) {
    // Local notification is immediate: the parent must enter the pool
    // before the processor picks its next task, or the stack discipline
    // would lose its depth-first property.
    child_done(parent);
  } else {
    machine_.count_message(1);
    SimEvent ev;
    ev.type = SimEvent::Type::kChildDone;
    ev.node = parent;
    queue_.schedule_after(machine_.params().latency, EventKind::kMessage, ev);
  }
}

void Engine::child_done(index_t parent) {
  NodeState& pst = nodes_[static_cast<std::size_t>(parent)];
  check(pst.children_remaining > 0, "simulate: child accounting broken");
  if (--pst.children_remaining > 0) return;
  node_ready(parent);
}

void Engine::node_ready(index_t node) {
  if (mapping_.type[static_cast<std::size_t>(node)] == NodeType::kType3) {
    start_type3(node);
    return;
  }
  const index_t owner = mapping_.owner[static_cast<std::size_t>(node)];
  pool_push(owner, node);
  // Workload grows when a task becomes ready (Section 5.2); subtree
  // tasks were pre-charged in the initial workload.
  if (upper_part(node)) {
    announce_load(owner, ready_cost(node));
    refresh_pending_master(owner);
  }
  wake(owner);
}

count_t Engine::ready_cost(index_t node) const {
  // Workload a ready task adds to its owner: a type-2 master only owns
  // its master part, the rest is given away at activation.
  return mapping_.type[static_cast<std::size_t>(node)] == NodeType::kType2
             ? master_flops(tree_.nfront(node), tree_.npiv(node),
                            tree_.symmetric())
             : tree_.flops(node);
}

// ---- results ---------------------------------------------------------------

ParallelResult Engine::finalize() {
  check(completed_ == tree_.num_nodes(),
        "simulate: not all nodes completed (deadlock?)");
  ParallelResult result;
  result.makespan = now();
  result.procs.reserve(procs_.size());
  double sum_peak = 0.0;
  for (index_t p = 0; p < nprocs_; ++p) {
    Proc& proc = procs_[static_cast<std::size_t>(p)];
    check(proc.stack == 0, "simulate: stack not empty at the end");
    proc.result.stack_peak = proc.peak;
    if (proc.peak > result.max_stack_peak) result.peak_proc = p;
    result.max_stack_peak = std::max(result.max_stack_peak, proc.peak);
    sum_peak += static_cast<double>(proc.peak);
    result.procs.push_back(proc.result);
  }
  result.avg_stack_peak = sum_peak / static_cast<double>(nprocs_);
  result.messages = machine_.messages();
  result.comm_entries = machine_.comm_entries();
  result.type2_nodes_run = type2_nodes_;
  result.ooc_enabled = ooc_on();
  result.events_processed = queue_.processed();
  result.io_events = queue_.processed(EventKind::kIo);
  if (ooc_on()) {
    for (const ProcResult& pr : result.procs) {
      result.ooc_factor_write_entries += pr.ooc.factor_write_entries;
      result.ooc_spill_entries += pr.ooc.spill_entries;
      result.ooc_reload_entries += pr.ooc.reload_entries;
      result.ooc_stall_time += pr.ooc.stall_time;
      result.ooc_overlap_time += pr.ooc.overlap_time;
      result.ooc_io_retries += pr.ooc.io_retries;
      result.ooc_overrun_peak =
          std::max(result.ooc_overrun_peak, pr.ooc.overrun_peak);
      result.ooc_buffer_high_water =
          std::max(result.ooc_buffer_high_water, pr.ooc.buffer_high_water);
    }
  }
  return result;
}

}  // namespace memfront
