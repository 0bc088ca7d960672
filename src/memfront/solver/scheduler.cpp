#include "memfront/solver/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"

namespace memfront {
namespace {

/// Sleepers re-check the world on this tick even if a notify was lost;
/// a safety net, not the signalling path (targeted wakeups are). A wait
/// it ends that then finds progress counts as a tick rescue.
constexpr std::chrono::milliseconds kIdleTick{50};

constexpr std::size_t kEveryone = std::numeric_limits<std::size_t>::max();

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

SchedConfig sched_config_for(RealPolicy p) {
  SchedConfig cfg;
  if (p == RealPolicy::kMemory) {
    cfg.slave_strategy = SlaveStrategy::kMemoryImproved;
    cfg.task_strategy = TaskStrategy::kMemoryAware;
  }
  // The spill-aware branch of Algorithm 2 reads TaskQuery::spill_budget,
  // which the scheduler sets directly; no OocAwarePolicy decorator (that
  // one routes admission to the *simulated* OocEngine).
  return cfg;
}

}  // namespace

const char* real_policy_name(RealPolicy p) {
  switch (p) {
    case RealPolicy::kWorkload: return "workload";
    case RealPolicy::kMemory: return "memory";
  }
  return "?";
}

void split_subtree_nodes(const Subtrees& subtrees,
                         std::span<const index_t> traversal,
                         std::vector<std::vector<index_t>>& subtree_nodes,
                         std::vector<index_t>& upper_nodes) {
  subtree_nodes.assign(subtrees.roots.size(), {});
  upper_nodes.clear();
  for (index_t i : traversal) {
    const index_t s = subtrees.node_subtree[static_cast<std::size_t>(i)];
    if (s != kNone)
      subtree_nodes[static_cast<std::size_t>(s)].push_back(i);
    else
      upper_nodes.push_back(i);
  }
}

std::vector<std::vector<index_t>> fold_subtrees(const Subtrees& subtrees,
                                                unsigned workers) {
  std::vector<std::vector<index_t>> shares(workers);
  for (std::size_t s = 0; s < subtrees.roots.size(); ++s)
    shares[static_cast<std::size_t>(subtrees.proc[s]) % workers].push_back(
        static_cast<index_t>(s));
  for (auto& share : shares)
    std::sort(share.begin(), share.end(), [&](index_t a, index_t b) {
      const count_t fa = subtrees.flops[static_cast<std::size_t>(a)];
      const count_t fb = subtrees.flops[static_cast<std::size_t>(b)];
      return fa != fb ? fa > fb : a < b;
    });
  return shares;
}

count_t predict_subtree_arena_peak(const AssemblyTree& tree,
                                   std::span<const index_t> nodes,
                                   index_t root) {
  count_t cb_live = 0;
  count_t peak = 0;
  for (index_t i : nodes) {
    const count_t fsq = square(tree.nfront(i));
    // Assembly: the front coexists with every child CB still stacked.
    peak = std::max(peak, cb_live + fsq);
    for (index_t child : tree.children(i)) cb_live -= square(tree.ncb(child));
    if (i == root) continue;  // the root's CB outlives the task
    // Extraction: the node's CB is pushed while the front is still live.
    peak = std::max(peak, cb_live + square(tree.ncb(i)) + fsq);
    cb_live += square(tree.ncb(i));
  }
  check(cb_live == 0, "predict_subtree_arena_peak: subtree left CBs stacked");
  return peak;
}

// ---------------------------------------------------------------------------
// RealPolicyHost

RealPolicyHost::RealPolicyHost(const AssemblyTree& tree,
                               const Subtrees& subtrees,
                               std::span<const count_t> subtree_peak_doubles,
                               unsigned workers)
    : tree_(tree), subtrees_(subtrees), workers_(workers) {
  root_peak_.assign(static_cast<std::size_t>(tree.num_nodes()), 0);
  for (std::size_t s = 0; s < subtrees.roots.size(); ++s)
    root_peak_[static_cast<std::size_t>(subtrees.roots[s])] =
        subtree_peak_doubles[s];
}

index_t RealPolicyHost::nprocs() const {
  return static_cast<index_t>(workers_.size());
}

const AnnouncedState& RealPolicyHost::announced(index_t q) const {
  return workers_[static_cast<std::size_t>(q)].announced;
}

count_t RealPolicyHost::activation_entries(index_t node) const {
  const count_t peak = root_peak_[static_cast<std::size_t>(node)];
  if (peak > 0) return peak;
  return square(static_cast<count_t>(tree_.nfront(node)));
}

bool RealPolicyHost::in_subtree(index_t node) const {
  return subtrees_.node_subtree[static_cast<std::size_t>(node)] != kNone;
}

// ---------------------------------------------------------------------------
// NumericScheduler

NumericScheduler::NumericScheduler(
    const AssemblyTree& tree, const Subtrees& subtrees,
    const std::vector<std::vector<index_t>>& subtree_nodes,
    std::span<const index_t> upper_nodes,
    const std::vector<std::vector<index_t>>& worker_subtrees, unsigned workers,
    const RealSchedOptions& options, count_t ooc_budget_doubles,
    Direction direction)
    : tree_(tree),
      subtrees_(subtrees),
      options_(options),
      direction_(direction),
      host_(tree, subtrees,
            [&] {
              subtree_peak_.reserve(subtree_nodes.size());
              for (std::size_t s = 0; s < subtree_nodes.size(); ++s)
                subtree_peak_.push_back(predict_subtree_arena_peak(
                    tree, subtree_nodes[s], subtrees.roots[s]));
              return std::span<const count_t>(subtree_peak_);
            }(),
            workers),
      ooc_budget_(ooc_budget_doubles),
      t0_(std::chrono::steady_clock::now()) {
  subtree_flops_ = subtrees.flops;
  if (options_.policy_override) {
    policy_ = options_.policy_override;
  } else {
    owned_policy_ = make_policy(sched_config_for(options_.policy), host_,
                                nullptr);
    policy_ = owned_policy_.get();
  }
  policy_reads_host_ = options_.policy == RealPolicy::kMemory ||
                       options_.policy_override != nullptr;

  sleepers_ = std::vector<Sleeper>(workers);
  deques_.resize(workers);
  started_.assign(workers, 0);
  remaining_ = subtrees.roots.size() + upper_nodes.size();
  if (direction_ == Direction::kDownward) {
    // Every root starts ready, spread across the deques; each further
    // task is readied by its parent's completion. There is no static
    // share to drain, so idle workers must steal.
    check(options_.steal, "scheduler: a downward run requires stealing");
    unsigned seed_w = 0;
    for (index_t r : tree.roots())
      push_task_locked(seed_w++ % workers, task_of(r));
    return;
  }
  // worker_subtrees[w] arrives largest-first; the deque dispatches from
  // the back, so push in reverse: back = the worker's biggest subtree
  // (the LPT order), front = the cold end thieves take from.
  for (unsigned w = 0; w < workers; ++w)
    for (std::size_t k = worker_subtrees[w].size(); k-- > 0;)
      push_task_locked(w, Task{Task::Kind::kSubtree, worker_subtrees[w][k]});

  deps_.assign(static_cast<std::size_t>(tree.num_nodes()), 0);
  for (index_t i : upper_nodes)
    deps_[static_cast<std::size_t>(i)] =
        static_cast<index_t>(tree.children(i).size());
  // Upper leaves start ready: the shared LIFO in static mode (exactly
  // the old seeding), round-robin across the deques in dynamic mode.
  unsigned seed_w = 0;
  for (index_t i : upper_nodes) {
    if (deps_[static_cast<std::size_t>(i)] != 0) continue;
    if (options_.steal) {
      push_task_locked(seed_w % workers, Task{Task::Kind::kUpper, i});
      ++seed_w;
    } else {
      shared_ready_.push_back(i);
    }
  }
}

NumericScheduler::~NumericScheduler() = default;

double NumericScheduler::now_locked() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

NumericScheduler::Task NumericScheduler::task_of(index_t node) const {
  const index_t s = subtrees_.node_subtree[static_cast<std::size_t>(node)];
  return s == kNone ? Task{Task::Kind::kUpper, node}
                    : Task{Task::Kind::kSubtree, s};
}

count_t NumericScheduler::task_window(const Task& t) const {
  if (t.kind == Task::Kind::kSubtree)
    return subtree_peak_[static_cast<std::size_t>(t.id)];
  return square(static_cast<count_t>(tree_.nfront(t.id)));
}

count_t NumericScheduler::task_flops(const Task& t) const {
  if (t.kind == Task::Kind::kSubtree)
    return subtree_flops_[static_cast<std::size_t>(t.id)];
  return tree_.flops(t.id);
}

void NumericScheduler::refresh_announced_locked(double now) {
  // queued_flops is maintained incrementally at every push/take/steal;
  // only pending_master (a max over queued upper windows, which removal
  // can lower) needs the deque scan — and only the memory policy's (or
  // an override's) slave_metric ever reads it.
  for (std::size_t q = 0; q < deques_.size(); ++q) {
    auto& ws = host_.workers_[q];
    if (policy_reads_host_) {
      count_t pending_master = 0;
      for (const Task& t : deques_[q])
        if (t.kind == Task::Kind::kUpper)
          pending_master = std::max(pending_master, task_window(t));
      ws.announced.pending_master.set(now, pending_master);
      ws.announced.subtree_peak.set(now, ws.running_subtree_peak);
      ws.announced.memory.set(
          now, ws.charged + ws.ooc_charged.load(std::memory_order_relaxed));
    }
    ws.announced.workload.set(now, ws.queued_flops + ws.running_flops);
  }
}

void NumericScheduler::push_task_locked(unsigned w, const Task& t) {
  deques_[w].push_back(t);
  host_.workers_[w].queued_flops += task_flops(t);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, deques_[w].size());
}

/// The pool worker w's dispatch consult sees. Dynamic mode: the
/// worker's own deque, back = pool top. Static mode: the shared upper
/// LIFO *below* the worker's own subtrees, so a LIFO policy drains the
/// own LPT share largest-first before touching uppers — today's static
/// schedule exactly.
void NumericScheduler::build_pool_locked(unsigned w) {
  pool_nodes_.clear();
  pool_refs_.clear();
  if (!options_.steal) {
    for (std::size_t k = 0; k < shared_ready_.size(); ++k) {
      pool_nodes_.push_back(shared_ready_[k]);
      pool_refs_.push_back(PoolRef{true, k});
    }
  }
  for (std::size_t k = 0; k < deques_[w].size(); ++k) {
    const Task& t = deques_[w][k];
    pool_nodes_.push_back(t.kind == Task::Kind::kSubtree
                              ? subtrees_.roots[static_cast<std::size_t>(t.id)]
                              : t.id);
    pool_refs_.push_back(PoolRef{false, k});
  }
}

NumericScheduler::Task NumericScheduler::take_at_locked(unsigned w,
                                                        std::size_t pos) {
  const PoolRef ref = pool_refs_[pos];
  if (ref.shared) {
    const index_t node = shared_ready_[ref.idx];
    shared_ready_.erase(shared_ready_.begin() +
                        static_cast<std::ptrdiff_t>(ref.idx));
    return Task{Task::Kind::kUpper, node};
  }
  const Task t = deques_[w][ref.idx];
  deques_[w].erase(deques_[w].begin() + static_cast<std::ptrdiff_t>(ref.idx));
  host_.workers_[w].queued_flops -= task_flops(t);
  return t;
}

bool NumericScheduler::try_steal_locked(unsigned w, double now) {
  // Victim = the policy's worst-off worker among those with work:
  // slave_metric ranks announced workload (flops) or announced memory
  // (+ static knowledge), so the workload policy steals from the most
  // loaded worker and the memory policy from the most burdened one.
  refresh_announced_locked(now);
  SlaveQuery q;
  q.master = static_cast<index_t>(w);
  q.horizon = now;
  q.master_load = host_.workers_[w].queued_flops +
                  host_.workers_[w].running_flops;
  index_t victim = kNone;
  count_t best = 0;
  for (std::size_t v = 0; v < deques_.size(); ++v) {
    if (v == w || deques_[v].empty()) continue;
    const count_t metric = policy_->slave_metric(static_cast<index_t>(v), q);
    if (victim == kNone || metric > best) {
      victim = static_cast<index_t>(v);
      best = metric;
    }
  }
  if (victim == kNone) return false;

  auto& vd = deques_[static_cast<std::size_t>(victim)];
  auto& vs = host_.workers_[static_cast<std::size_t>(victim)];
  std::size_t moved = 0;
  std::size_t num_subtrees = 0;
  for (const Task& t : vd)
    if (t.kind == Task::Kind::kSubtree) ++num_subtrees;
  if (num_subtrees > 0) {
    // Chunked subtree steal: half the victim's whole-subtree tasks
    // (rounded up, at least one), taken from the cold end — the LPT
    // order keeps the victim's biggest subtrees with the victim.
    std::size_t want = (num_subtrees + 1) / 2;
    for (std::size_t k = 0; k < vd.size() && moved < want;) {
      if (vd[k].kind == Task::Kind::kSubtree) {
        vs.queued_flops -= task_flops(vd[k]);
        push_task_locked(w, vd[k]);
        vd.erase(vd.begin() + static_cast<std::ptrdiff_t>(k));
        ++moved;
      } else {
        ++k;
      }
    }
  } else {
    // No subtrees left anywhere on the victim: take its oldest ready
    // upper front.
    vs.queued_flops -= task_flops(vd.front());
    push_task_locked(w, vd.front());
    vd.erase(vd.begin());
    moved = 1;
  }
  stats_.steals += moved;
  ++stats_.steal_chunks;
  // A multi-task chunk can feed more sleepers than this thief.
  if (moved > 1 && waiting_ > 0) notify_one_locked();
  return true;
}

bool NumericScheduler::try_adopt_locked(unsigned w) {
  // Static mode only: adopt the whole share of a worker that never
  // started (pool threads can fail to spawn under resource limits);
  // without this its subtrees would never run.
  for (std::size_t u = 0; u < deques_.size(); ++u) {
    if (u == w || started_[u] || deques_[u].empty()) continue;
    started_[u] = 1;
    for (const Task& t : deques_[u]) push_task_locked(w, t);
    deques_[u].clear();
    host_.workers_[u].queued_flops = 0;
    return true;
  }
  return false;
}

std::exception_ptr NumericScheduler::SharedJob::run(const char* fault_site,
                                                    std::uint64_t& done) {
  for (;;) {
    if (failed.load(std::memory_order_relaxed)) return nullptr;
    const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
    if (b >= blocks) return nullptr;
    try {
      // Fault sites: a helper dying inside another worker's front must
      // reach the owner as its task's failure, once every helper left.
      if (fault_site != nullptr &&
          MEMFRONT_FAULT(fault_site, static_cast<std::int64_t>(b)))
        throw std::runtime_error("injected helper failure in a shared front");
      body(b);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      return std::current_exception();
    }
    ++done;
  }
}

bool NumericScheduler::help_locked(std::unique_lock<std::mutex>& lock,
                                   const char* fault_site,
                                   std::uint64_t& done) {
  const auto open = std::find_if(jobs_.begin(), jobs_.end(), [](SharedJob* j) {
    return j->next.load(std::memory_order_relaxed) < j->blocks &&
           !j->failed.load(std::memory_order_relaxed);
  });
  if (open == jobs_.end()) return false;
  SharedJob& job = **open;
  // Joining under mu_ orders the owner's panel writes before this
  // helper's reads; leaving under mu_ orders its block writes before the
  // owner's return from for_each.
  ++job.helpers;
  lock.unlock();
  done = 0;
  std::exception_ptr error;
  {
    MEMFRONT_SPAN("help", static_cast<std::int64_t>(job.seq));
    error = job.run(fault_site, done);
  }
  lock.lock();
  stats_.helper_blocks += done;
  if (error && !job.error) job.error = error;
  if (--job.helpers == 0) help_cv_.notify_all();
  return true;
}

void NumericScheduler::for_each(std::size_t n,
                                const std::function<void(std::size_t)>& body) {
  SharedJob job{body, n};
  bool posted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Post whenever another worker holds no task, asleep or not: one
    // that is still on its way to sleep (say, preempted right after its
    // last completion) joins when it gets there. A worker waiting for
    // memory holds no task here either.
    if (running_ < deques_.size() && !failed_) {
      job.seq = stats_.shared_updates++;
      jobs_.push_back(&job);
      stats_.helper_wakeups += wake_locked(Sleeper::Kind::kTask, kEveryone) +
                               wake_locked(Sleeper::Kind::kMemory, kEveryone);
      posted = true;
    }
  }
  if (!posted) {  // nobody to share with: run every block here
    for (std::size_t b = 0; b < n; ++b) body(b);
    return;
  }
  std::uint64_t done = 0;
  std::exception_ptr error = job.run(/*fault_site=*/nullptr, done);
  {
    std::unique_lock<std::mutex> lock(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    help_cv_.wait(lock, [&] { return job.helpers == 0; });
    if (!error) error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

/// Sleeps worker w on its own condition variable until a notifier wakes
/// it or the tick passes. Returns true when the tick ended the wait.
bool NumericScheduler::sleep_locked(std::unique_lock<std::mutex>& lock,
                                    unsigned w, Sleeper::Kind kind) {
  Sleeper& s = sleepers_[w];
  s.kind = kind;
  s.woken = false;
  s.cv.wait_for(lock, kIdleTick, [&] { return s.woken; });
  s.kind = Sleeper::Kind::kAwake;
  return !s.woken;
}

/// Wakes up to `max` sleepers of `kind` that no one woke yet; returns
/// how many it woke.
std::size_t NumericScheduler::wake_locked(Sleeper::Kind kind,
                                          std::size_t max) {
  std::size_t woke = 0;
  for (Sleeper& s : sleepers_) {
    if (woke == max) break;
    if (s.kind != kind || s.woken) continue;
    s.woken = true;
    s.cv.notify_one();
    ++woke;
  }
  return woke;
}

void NumericScheduler::notify_one_locked() {
  stats_.wakeups += wake_locked(Sleeper::Kind::kTask, 1);
}

void NumericScheduler::notify_all_locked() {
  stats_.wakeups += wake_locked(Sleeper::Kind::kTask, kEveryone);
}

bool NumericScheduler::next_task(unsigned w, Task& out) {
  std::unique_lock<std::mutex> lock(mu_);
  started_[w] = 1;
  auto& ws = host_.workers_[w];
  bool by_tick = false;  // the last sleep ended on the tick
  const auto progress = [&] {
    if (by_tick) ++stats_.tick_rescues;
    by_tick = false;
  };
  for (;;) {
    if (failed_ || remaining_ == 0) return false;
    if (!deques_[w].empty() || (!options_.steal && !shared_ready_.empty())) {
      progress();
      build_pool_locked(w);
      TaskQuery q;
      q.proc = static_cast<index_t>(w);
      q.pool = pool_nodes_;
      if (ooc_budget_ > 0) {
        // The budget is global: Algorithm 2's spill-aware branch dodges
        // activations the whole pool's in-flight reservations would not
        // leave room for.
        q.projected_memory =
            ooc_charged_total_.load(std::memory_order_relaxed);
        q.spill_budget = ooc_budget_;
      } else {
        q.projected_memory = ws.charged;
      }
      q.observed_peak = ws.observed_peak;
      ++stats_.dispatch_consults;
      const std::size_t pos = policy_->select_task(q);
      check(pos < pool_nodes_.size(),
            "scheduler: policy returned an out-of-pool position");
      const Task t = take_at_locked(w, pos);
      // Activation admission: the same consult the simulated engine
      // makes ahead of every allocation. In-core policies admit
      // instantly; the OOC coordinator's own gate does the real
      // waiting (and consults again, per reservation).
      ++stats_.admit_consults;
      (void)policy_->admit(static_cast<index_t>(w), task_window(t));
      ws.charged += ooc_budget_ > 0 ? 0 : task_window(t);
      ws.observed_peak = std::max(
          ws.observed_peak,
          ws.charged + ws.ooc_charged.load(std::memory_order_relaxed));
      ws.running_flops = task_flops(t);
      if (t.kind == Task::Kind::kSubtree)
        ws.running_subtree_peak = task_window(t);
      ++running_;
      out = t;
      return true;
    }
    if (options_.steal ? try_steal_locked(w, now_locked())
                       : try_adopt_locked(w)) {
      progress();
      continue;
    }
    std::uint64_t done = 0;
    if (help_locked(lock, "worker.help_exception", done)) {
      progress();
      continue;
    }
    ++waiting_;
    const auto idle_t0 = std::chrono::steady_clock::now();
    by_tick = sleep_locked(lock, w, Sleeper::Kind::kTask);
    stats_.idle_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - idle_t0)
            .count());
    --waiting_;
  }
}

double NumericScheduler::wait_for_memory(unsigned w, std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mu_);
  // Inside begin_node the worker holds a dispatched task but no memory,
  // and it posts no job of its own from here: it counts as holding no
  // task, so owners post their trailing updates to it.
  --running_;
  double helped = 0;
  bool by_tick = false;  // the last sleep ended on the tick
  while (!failed_ && released_epoch_ <= seen) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t done = 0;
    if (help_locked(lock, "worker.memory_help_exception", done)) {
      if (by_tick) ++stats_.tick_rescues;
      by_tick = false;
      stats_.memory_wait_blocks += done;
      helped += seconds_since(t0);
      continue;
    }
    ++stats_.memory_waits;
    by_tick = sleep_locked(lock, w, Sleeper::Kind::kMemory);
  }
  if (by_tick && !failed_) ++stats_.tick_rescues;
  ++running_;
  return helped;
}

void NumericScheduler::memory_released(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  released_epoch_ = std::max(released_epoch_, epoch);
  wake_locked(Sleeper::Kind::kMemory, kEveryone);
}

void NumericScheduler::complete(unsigned w, const Task& task) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& ws = host_.workers_[w];
  ws.charged -= ooc_budget_ > 0 ? 0 : task_window(task);
  ws.running_flops = 0;
  ws.running_subtree_peak = 0;
  --running_;
  ++stats_.completions;

  // Readied tasks land on the completing worker's deque (locality);
  // idle workers steal them.
  std::size_t readied = 0;
  if (direction_ == Direction::kUpward) {
    const index_t node =
        task.kind == Task::Kind::kSubtree
            ? subtrees_.roots[static_cast<std::size_t>(task.id)]
            : task.id;
    const index_t parent = tree_.parent(node);
    if (parent != kNone && --deps_[static_cast<std::size_t>(parent)] == 0) {
      // The parent is always an upper node.
      if (options_.steal)
        push_task_locked(w, Task{Task::Kind::kUpper, parent});
      else
        shared_ready_.push_back(parent);
      readied = 1;
    }
  } else if (task.kind == Task::Kind::kUpper) {
    // Each child is an upper node or the root of a whole subtree; a
    // subtree task readies nothing (its nodes are all its own).
    for (index_t child : tree_.children(task.id))
      push_task_locked(w, task_of(child));
    readied = tree_.children(task.id).size();
  }
  --remaining_;
  // Targeted wakeups: sleepers only care when tasks became ready (one
  // sleeper per task can take one) or the pool drained (all of them must
  // exit).
  if (remaining_ == 0) {
    if (waiting_ > 0) notify_all_locked();
  } else {
    for (std::size_t k = std::min(readied, waiting_); k > 0; --k)
      notify_one_locked();
  }
}

void NumericScheduler::fail() {
  std::lock_guard<std::mutex> lock(mu_);
  failed_ = true;
  if (waiting_ > 0) notify_all_locked();
  wake_locked(Sleeper::Kind::kMemory, kEveryone);
}

double NumericScheduler::consult_admission(index_t w, index_t node,
                                           count_t window_doubles) {
  (void)node;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.admit_consults;
  return policy_->admit(w, window_doubles);
}

void NumericScheduler::add_ooc_charge(index_t w, count_t delta) {
  host_.workers_[static_cast<std::size_t>(w)].ooc_charged.fetch_add(
      delta, std::memory_order_relaxed);
  ooc_charged_total_.fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace memfront
