// Dynamic, policy-consulted scheduling of the real tree-parallel
// factorization — the sim→real loop closed — and the one tree-task
// runtime the solve sweeps run on too.
//
// The simulator's SchedulerPolicy objects (core/policy) decide *real*
// execution order here: every worker keeps a private task deque
// (whole-subtree tasks at the bottom, freshly readied upper fronts
// pushed on top), every dispatch builds a TaskQuery over the worker's
// visible pool and asks the policy which entry to activate, and every
// activation passes through SchedulerPolicy::admit. RealPolicyHost is
// the PolicyHost the policies consult: it mirrors live per-worker state
// — charged memory in full-square doubles (projected subtree arena
// peaks, live upper windows, in-flight OOC reservations), queued and
// running flops — into the same time-stamped AnnouncedState histories
// the simulated processors announce, so WorkloadPolicy and MemoryPolicy
// run unmodified against real workers.
//
// Work stealing (dynamic mode, the default): a worker whose deque runs
// dry ranks the other workers by the policy's slave_metric — the most
// loaded (workload) or most memory-burdened (memory) worker is the
// victim — and steals a chunk: half the victim's whole-subtree tasks
// from the cold end of its deque (the LPT order keeps the victim's
// biggest subtrees with the victim), or, when the victim holds no
// subtree tasks, one ready upper front. Determinism mode (steal=off)
// reproduces the static PR-5 schedule exactly: each worker drains its
// own LPT share largest-first, then takes upper fronts LIFO from a
// shared pool, adopting the share of any worker that never spawned.
//
// Dependency direction: an upward run (the factorization, the forward
// solve sweep) dispatches a node's task after its children's; a
// downward run (the backward solve sweep) starts from every tree root
// and readies a task's children when it completes, always stealing.
//
// Bitwise identity under any of this: a node is assembled and
// eliminated by exactly one task, the extend-add order within a node is
// the tree's child order, and every task runs the same kernels —
// scheduling moves tasks between workers and reorders
// independent tasks, which reorders *writes to disjoint storage* only.
// Completions use targeted wakeups: a sleeper is notified only when a
// task became stealable/ready or the run drained or failed, never on
// every completion. Every worker sleeps on its own condition variable
// and a notifier marks whom it woke, so a wait that ends on the
// kIdleTick safety net and then finds progress is a lost wakeup,
// counted in SchedStats::tick_rescues.
//
// Intra-front sharing (the paper's type-2 nodes on shared memory): the
// scheduler is also the FrontTeam of every worker. A worker whose front
// reaches a large trailing update while another worker holds no task
// posts the update's column blocks as a job; a worker with no task and
// nothing to steal claims blocks from the job's atomic cursor instead
// of sleeping, and so does a worker waiting for memory under an OOC
// budget (wait_for_memory). Helpers write in place into the owner's
// front, so they charge no memory and make no dispatch; and each
// element still gets its whole update chain from one thread, so bits
// are unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "memfront/core/policy.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/symbolic/subtrees.hpp"

namespace memfront {

/// Which concrete SchedulerPolicy drives the worker pool.
enum class RealPolicy : unsigned char { kWorkload, kMemory };

const char* real_policy_name(RealPolicy p);

struct RealSchedOptions {
  /// Work stealing. Off = determinism mode: the exact static schedule
  /// (own LPT share largest-first, shared upper LIFO, orphan adoption),
  /// zero steals.
  bool steal = true;
  /// kWorkload = LIFO dispatch + flops-ranked victims (the MUMPS
  /// default); kMemory = Algorithm 2 memory-aware dispatch +
  /// memory-ranked victims with the Section 5.1 static knowledge.
  RealPolicy policy = RealPolicy::kWorkload;
  /// Tests: consult this caller-owned policy (e.g. a counting mock)
  /// instead of building one from `policy`. Must outlive the
  /// factorization; consults are serialized under the scheduler mutex.
  SchedulerPolicy* policy_override = nullptr;
};

/// What the scheduler did during one factorization.
struct SchedStats {
  std::uint64_t steals = 0;             ///< tasks moved between deques
  std::uint64_t steal_chunks = 0;       ///< steal transactions
  std::uint64_t wakeups = 0;            ///< targeted cv notifies issued
  std::uint64_t completions = 0;        ///< == subtrees + upper nodes
  std::uint64_t dispatch_consults = 0;  ///< SchedulerPolicy::select_task
  std::uint64_t admit_consults = 0;     ///< SchedulerPolicy::admit
  std::uint64_t idle_ns = 0;            ///< summed worker wait time
  std::size_t max_queue_depth = 0;      ///< deepest single deque seen
  std::uint64_t shared_updates = 0;     ///< trailing updates posted to helpers
  std::uint64_t helper_blocks = 0;      ///< column blocks run by helpers
  std::uint64_t helper_wakeups = 0;     ///< sleepers notified of a post
  /// Of helper_blocks, those run by workers waiting for memory.
  std::uint64_t memory_wait_blocks = 0;
  /// Sleeps in wait_for_memory: a worker waiting for OOC memory found no
  /// release past its epoch and no posted block, and blocked.
  std::uint64_t memory_waits = 0;
  /// Waits that ended on the safety-net tick and then found progress (a
  /// task, a steal, a posted job, a moved release epoch): lost wakeups.
  std::uint64_t tick_rescues = 0;
};

/// Splits a traversal into per-subtree postorder node lists (indexed by
/// subtree) and the upper-part remainder, preserving traversal order.
void split_subtree_nodes(const Subtrees& subtrees,
                         std::span<const index_t> traversal,
                         std::vector<std::vector<index_t>>& subtree_nodes,
                         std::vector<index_t>& upper_nodes);

/// Folds the LPT mapping onto `workers` workers: subtree s goes to worker
/// proc[s] % workers, and each worker's share is ordered largest flops
/// first (ties by index) — the LPT order the share dispatches in.
std::vector<std::vector<index_t>> fold_subtrees(const Subtrees& subtrees,
                                                unsigned workers);

/// Exact stacked-CB + live-front peak of one whole-subtree task
/// (doubles of full-square storage): the predict_arena_peak model over
/// the subtree's postorder, except the root's CB, which outlives the
/// task (it waits in the ledger for the upper-part parent) and so is
/// left out of the task's own window. The memory policy reads it as
/// the task's activation size.
count_t predict_subtree_arena_peak(const AssemblyTree& tree,
                                   std::span<const index_t> nodes,
                                   index_t root);

/// The live PolicyHost of the real worker pool. One "processor" per
/// worker; announced histories are refreshed from live counters under
/// the scheduler mutex before every steal ranking, their only reader
/// (a shared-memory machine has zero information delay — announced ==
/// actual).
class RealPolicyHost final : public PolicyHost {
 public:
  RealPolicyHost(const AssemblyTree& tree, const Subtrees& subtrees,
                 std::span<const count_t> subtree_peak_doubles,
                 unsigned workers);

  index_t nprocs() const override;
  const AnnouncedState& announced(index_t q) const override;
  /// Full-square doubles the task rooted at `node` occupies while it
  /// runs: the predicted arena peak of its whole subtree for a subtree
  /// root, nfront^2 for an upper node.
  count_t activation_entries(index_t node) const override;
  bool in_subtree(index_t node) const override;

 private:
  friend class NumericScheduler;
  struct WorkerState {
    AnnouncedState announced;
    count_t charged = 0;        ///< projected task windows (in-core)
    count_t queued_flops = 0;   ///< sum over the worker's deque
    count_t running_flops = 0;  ///< the task being executed
    count_t running_subtree_peak = 0;
    count_t observed_peak = 0;
    /// In-flight OOC reservations, mirrored lock-free from the
    /// coordinator's charge/release path; folded into announced memory
    /// at the next refresh under the scheduler mutex.
    std::atomic<count_t> ooc_charged{0};
  };

  const AssemblyTree& tree_;
  const Subtrees& subtrees_;
  /// node -> predicted subtree arena peak for subtree roots, 0 else.
  std::vector<count_t> root_peak_;
  std::vector<WorkerState> workers_;
};

/// The worker pool's task source. One instance per run over the tree
/// (a factorization or one solve sweep); the workers call
/// next_task()/complete() until the tree drains. All scheduling state
/// lives under one mutex; policy consults are serialized under it. Also
/// every worker's FrontTeam (for_each).
class NumericScheduler final : public FrontTeam {
 public:
  struct Task {
    enum class Kind : unsigned char { kSubtree, kUpper };
    Kind kind = Kind::kSubtree;
    index_t id = kNone;  ///< subtree index or upper node id
  };

  /// kUpward: a task runs after its children's tasks. kDownward: after
  /// its parent's task; every root starts ready.
  enum class Direction : unsigned char { kUpward, kDownward };

  /// `worker_subtrees[w]` is worker w's LPT share, largest subtree
  /// first (seeds upward runs only: a downward run readies each subtree
  /// when its parent completes). `ooc_budget_doubles` > 0 arms the
  /// spill-aware branch of the memory-aware task selection. A downward
  /// run requires options.steal.
  NumericScheduler(const AssemblyTree& tree, const Subtrees& subtrees,
                   const std::vector<std::vector<index_t>>& subtree_nodes,
                   std::span<const index_t> upper_nodes,
                   const std::vector<std::vector<index_t>>& worker_subtrees,
                   unsigned workers, const RealSchedOptions& options,
                   count_t ooc_budget_doubles,
                   Direction direction = Direction::kUpward);
  ~NumericScheduler();

  /// Blocks until a task is dispatched to worker w (the policy picks it
  /// and admits its activation), stealing when the worker's own pool is
  /// dry, and helping with posted front updates while it has nothing
  /// else to run. Returns false when all work is done or the run failed.
  bool next_task(unsigned w, Task& out);

  /// FrontTeam: runs the blocks on the calling worker, shared with any
  /// worker that holds no task right now (sleeping in next_task or on its
  /// way there, or waiting for memory; every other worker busy: all
  /// inline). Returns only after every helper that joined has left the
  /// job.
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& body) override;

  /// Reports the task done: releases its charges, readies the tasks it
  /// unblocks (upward: the parent once its last child finished;
  /// downward: every child) waking one sleeper per readied task, and,
  /// when the last task finished, wakes everyone.
  void complete(unsigned w, const Task& task);

  /// Poisons the pool: every next_task returns false.
  void fail();

  /// SchedulerPolicy::admit consultation for an OOC reservation of
  /// `window_doubles` on worker w — the coordinator's admission
  /// callback. Counted; the returned stall is a model quantity (the
  /// coordinator's own gate does the real waiting).
  double consult_admission(index_t w, index_t node, count_t window_doubles);

  /// Lock-free mirror of the coordinator's reservation ledger.
  void add_ooc_charge(index_t w, count_t delta);

  /// The OOC memory wait (OocSchedHooks::wait) of worker w, which holds
  /// a dispatched task but no memory yet: until a release epoch past
  /// `seen` is reported through memory_released, or the run fails, the
  /// worker helps any posted trailing update and otherwise sleeps. While
  /// here it counts as holding no task, so owners post jobs to it.
  /// Returns the seconds spent running blocks.
  double wait_for_memory(unsigned w, std::uint64_t seen);

  /// OocSchedHooks::released: the coordinator's release `epoch` happened;
  /// wakes every memory waiter.
  void memory_released(std::uint64_t epoch);

  const SchedStats& stats() const { return stats_; }
  const char* policy_name() const { return policy_->name(); }

 private:
  struct PoolRef {
    bool shared = false;    ///< static mode: the shared upper pool
    std::size_t idx = 0;    ///< position in deque / shared pool
  };

  /// One posted trailing update. Lives in the owner's for_each frame:
  /// the owner unlists it and waits for helpers == 0 before returning.
  struct SharedJob {
    SharedJob(const std::function<void(std::size_t)>& fn, std::size_t n)
        : body(fn), blocks(n) {}

    const std::function<void(std::size_t)>& body;
    const std::size_t blocks;
    std::uint64_t seq = 0;             ///< ordinal among shared updates
    std::atomic<std::size_t> next{0};  ///< claim cursor
    std::atomic<bool> failed{false};   ///< a block threw: stop claiming
    std::size_t helpers = 0;           ///< joined, not yet left (under mu_)
    std::exception_ptr error;          ///< first helper failure (under mu_)

    /// Claims and runs blocks until none are left or one threw; returns
    /// the exception, if any, and counts the blocks run in `done`. A
    /// helper names its fault site (the owner passes nullptr).
    std::exception_ptr run(const char* fault_site, std::uint64_t& done);
  };

  /// A worker's own condition variable, and whether a notifier woke it
  /// (a wait that ends with woken still false ended on the tick).
  struct Sleeper {
    enum class Kind : unsigned char { kAwake, kTask, kMemory };
    std::condition_variable cv;
    Kind kind = Kind::kAwake;
    bool woken = false;
  };

  double now_locked() const;
  void refresh_announced_locked(double now);
  Task task_of(index_t node) const;
  count_t task_window(const Task& t) const;
  count_t task_flops(const Task& t) const;
  void push_task_locked(unsigned w, const Task& t);
  void build_pool_locked(unsigned w);
  Task take_at_locked(unsigned w, std::size_t pos);
  bool try_steal_locked(unsigned w, double now);
  bool try_adopt_locked(unsigned w);
  bool help_locked(std::unique_lock<std::mutex>& lock, const char* fault_site,
                   std::uint64_t& done);
  bool sleep_locked(std::unique_lock<std::mutex>& lock, unsigned w,
                    Sleeper::Kind kind);
  std::size_t wake_locked(Sleeper::Kind kind, std::size_t max);
  void notify_one_locked();
  void notify_all_locked();

  const AssemblyTree& tree_;
  const Subtrees& subtrees_;
  RealSchedOptions options_;
  Direction direction_;
  /// subtree index -> predicted arena peak (doubles); upper windows are
  /// nfront^2. Declared before host_: its init feeds the host ctor.
  std::vector<count_t> subtree_peak_;
  std::vector<count_t> subtree_flops_;
  RealPolicyHost host_;
  std::unique_ptr<SchedulerPolicy> owned_policy_;
  SchedulerPolicy* policy_ = nullptr;
  /// Whether slave_metric can read announced memory state (the memory
  /// policy and any override do; the workload policy reads workload
  /// only) — gates the memory fields of the steal-side refresh.
  bool policy_reads_host_ = false;
  count_t ooc_budget_ = 0;

  std::mutex mu_;
  std::vector<Sleeper> sleepers_;          ///< one per worker
  std::vector<std::vector<Task>> deques_;  ///< back = hottest
  std::vector<index_t> shared_ready_;      ///< static mode upper LIFO
  std::vector<char> started_;              ///< worker ever dispatched
  std::vector<index_t> deps_;  ///< upward: upper node -> open children
  std::size_t remaining_ = 0;
  std::size_t waiting_ = 0;  ///< workers asleep in next_task
  /// Workers holding a dispatched task, less those in the memory wait.
  std::size_t running_ = 0;
  /// Highest release epoch memory_released reported.
  std::uint64_t released_epoch_ = 0;
  bool failed_ = false;
  /// Posted front updates still listed for helpers (owners' frames).
  std::vector<SharedJob*> jobs_;
  /// Owners waiting for their helpers to leave.
  std::condition_variable help_cv_;
  std::atomic<count_t> ooc_charged_total_{0};
  SchedStats stats_;
  std::chrono::steady_clock::time_point t0_;

  /// Per-dispatch scratch (under mu_): the pool the policy sees and the
  /// mapping back to deque/shared positions.
  std::vector<index_t> pool_nodes_;
  std::vector<PoolRef> pool_refs_;
};

}  // namespace memfront
