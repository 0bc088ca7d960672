// Simulated parallel multifrontal factorization (the paper's testbed).
//
// Replays the MUMPS execution model of Section 3 on the discrete-event
// machine: per-processor pools of statically assigned tasks, asynchronous
// type-2 master/slave fronts with dynamically chosen slaves, a 2D
// block-cyclic type-3 root, contribution blocks resident on their
// producers until the parent assembles, and asynchronously broadcast
// memory/workload/subtree/prediction information with configurable
// staleness. The quantity of interest is the per-processor stack peak
// (active memory), in entries, exactly as in Tables 2-5; the makespan
// stands in for the factorization time of Table 6.
#pragma once

#include <cstdint>
#include <vector>

#include "memfront/core/config.hpp"
#include "memfront/ooc/stats.hpp"
#include "memfront/sim/trace.hpp"
#include "memfront/symbolic/mapping.hpp"

namespace memfront {

/// What kind of allocation pushed a processor to its peak — the paper's
/// per-case discussion (Section 6) hinges on exactly this information.
enum class PeakCause : unsigned char {
  kNone,
  kType1Front,   // a sequential front was assembled
  kType2Master,  // a type-2 master part was allocated
  kSlaveBlock,   // a received slave block
  kRootShare,    // the 2D root share
  kContribution, // a contribution block was pushed
};

const char* peak_cause_name(PeakCause cause);

struct ProcResult {
  count_t stack_peak = 0;      // max active memory (entries)
  count_t factor_entries = 0;  // factors produced on this processor
  double busy_time = 0.0;
  count_t flops_done = 0;
  index_t tasks_run = 0;
  index_t slave_tasks_run = 0;
  PeakCause peak_cause = PeakCause::kNone;
  index_t peak_node = kNone;     // node whose allocation set the peak
  bool peak_in_subtree = false;  // was that node inside a leave subtree?
  double peak_time = 0.0;
  OocProcStats ooc{};
};

struct ParallelResult {
  double makespan = 0.0;
  count_t max_stack_peak = 0;  // max over processors (the paper's metric)
  double avg_stack_peak = 0.0;
  index_t peak_proc = kNone;   // processor holding the max peak
  std::vector<ProcResult> procs;
  count_t messages = 0;
  count_t comm_entries = 0;
  index_t type2_nodes_run = 0;

  // ---- out-of-core aggregates (zero when the mode is off) ----
  bool ooc_enabled = false;
  /// In OOC mode stack_peak already *is* the in-core residency (factors
  /// awaiting write-back stay on the stack until the write lands); this is
  /// its max over processors, i.e. the machine one must buy.
  count_t ooc_factor_write_entries = 0;  // Σ factor volume written
  count_t ooc_spill_entries = 0;         // Σ contribution volume evicted
  count_t ooc_reload_entries = 0;        // Σ contribution volume reread
  double ooc_stall_time = 0.0;           // Σ budget-admission stalls
  count_t ooc_overrun_peak = 0;          // max over processors
  double ooc_overlap_time = 0.0;         // Σ I/O hidden behind compute (WB)
  count_t ooc_buffer_high_water = 0;     // max over processors (WB)
  index_t ooc_io_retries = 0;            // Σ transient I/O faults retried
  /// Disk-completion events the run processed (0 when the mode is off).
  std::uint64_t io_events = 0;
  /// Total discrete events the run processed (perf denominator for
  /// events/second; never compared across scheduling changes).
  std::uint64_t events_processed = 0;

  /// Did every processor stay within the budget (after spilling/draining)?
  bool ooc_feasible() const noexcept { return ooc_overrun_peak == 0; }
};

ParallelResult simulate_parallel_factorization(const AssemblyTree& tree,
                                               const StaticMapping& mapping,
                                               const std::vector<index_t>& traversal,
                                               const SchedConfig& config,
                                               Trace* trace = nullptr);

}  // namespace memfront
