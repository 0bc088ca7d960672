// Configuration of the out-of-core execution mode.
#pragma once

#include <string>

#include "memfront/ooc/disk.hpp"
#include "memfront/ooc/spill.hpp"
#include "memfront/support/types.hpp"

namespace memfront {

/// I/O discipline of the out-of-core mode: how the processor interacts
/// with its disk channel when factors retire and blocks spill.
enum class OocIoMode : unsigned char {
  /// Writes are issued asynchronously and the entries stay on the stack
  /// until the write lands; budget admission *drains* in-flight factor
  /// writes (stalling for the remaining disk time) and stalls for spill
  /// evictions. The PR-1 semantics; the planner's default.
  kAdmissionDrain,
  /// Blocking I/O: the processor stalls at every factor retirement and
  /// every spill until the disk write lands. The classic synchronous
  /// out-of-core scheme, the baseline of the overlap comparison.
  kSynchronous,
  /// Asynchronous write-behind: retired factors and spilled blocks move
  /// into a bounded per-processor I/O buffer (dedicated RAM outside the
  /// budget) and leave the stack immediately; the disk drains the buffer
  /// in the background and each buffered write's completion is a disk
  /// event freeing its slot. Compute overlaps I/O; the processor stalls
  /// only when the buffer is full.
  kWriteBehind,
};

const char* ooc_io_mode_name(OocIoMode mode);

/// Out-of-core execution mode (Section 7: once factors go to disk, the
/// stack *is* the memory footprint). When enabled, completed factor panels
/// stream to disk (freeing in-core memory when the write lands), and a
/// hard per-processor budget is enforced by spilling resident
/// contribution blocks; the stall the disk costs depends on `io_mode`.
struct OocConfig {
  bool enabled = false;
  /// Hard per-processor in-core budget, in entries. 0 = unlimited (factors
  /// still stream to disk; nothing ever spills or stalls on the budget).
  count_t budget = 0;
  DiskParams disk{};
  SpillPolicy spill_policy = SpillPolicy::kLargestFirst;
  /// Let the dynamic task/slave selection penalize choices that would
  /// push a processor over its budget (and hence trigger spills).
  bool spill_penalty = false;
  /// Weight of the slave-selection penalty: projected overflow entries
  /// count this many times in the candidate's memory metric.
  count_t spill_penalty_weight = 4;
  /// How factor write-back and spill traffic interacts with compute.
  OocIoMode io_mode = OocIoMode::kAdmissionDrain;
  /// Write-behind mode: per-processor I/O-buffer capacity, in entries.
  /// 0 = auto: as large as the budget (double buffering), unbounded when
  /// the budget is unlimited too.
  count_t write_buffer_entries = 0;
};

/// Column-panel granularity of spilled contribution blocks. A CB of
/// order n whose square is below kOocCbSplitDoubles spills as a single
/// block; larger ones split into kOocCbPanels whole-column panels, one
/// spill block each, so the budgeted assembly can stream a CB through
/// extend-add (and extraction can stream one to disk) with a memory
/// window of one panel instead of the whole block.
/// predict_min_ooc_budget is a pure function of these values — change
/// them together.
inline constexpr count_t kOocCbSplitDoubles = count_t{1} << 15;
inline constexpr index_t kOocCbPanels = 8;

/// Columns per spill block of a CB of order n (n itself — one block —
/// below the split threshold).
constexpr index_t ooc_cb_panel_cols(index_t n) noexcept {
  if (n <= 0) return 0;
  if (square(n) < kOocCbSplitDoubles) return n;
  return (n + kOocCbPanels - 1) / kOocCbPanels;
}

/// Real out-of-core execution (the spill path the numeric factorization
/// runs, serial or parallel, as opposed to the OocConfig the *simulator*
/// models). The budget is a hard admission gate over everything the
/// factorization holds beyond the factor storage: resident contribution
/// blocks, the live fronts, and the spill store's in-flight write
/// buffer. Every real factorization runs on the same ledger; disabled
/// means in core, an unlimited budget with no spill store.
struct OocExecConfig {
  /// Open the spill store and enforce budget_doubles. Off = in core:
  /// the budget is unlimited whatever budget_doubles holds.
  bool enabled = false;
  /// Hard budget in doubles of full-square storage (the unit of
  /// predict_arena_peak). 0 = unlimited: factors still stream to disk
  /// when spill_factors is set, but nothing spills or stalls, and no
  /// streaming window is reserved. Admission evicts resident CBs
  /// largest-first, the simulator's default victim selection.
  count_t budget_doubles = 0;
  /// Spill and factor writes go through a background I/O thread and an
  /// in-flight buffer of budget_doubles / 4 (unbounded when the budget
  /// is), so compute overlaps the disk; admission drains in-flight
  /// writes before it gives up, so the simulator's kAdmissionDrain and
  /// kWriteBehind both run as this. Off = synchronous: every write lands
  /// on the compute thread, the overlap baseline.
  bool write_behind = true;
  /// Stream finished factor panels to disk (reloaded at solve time).
  /// When false only contribution blocks spill.
  bool spill_factors = true;
  /// Spill-file directory ("" = MEMFRONT_SPILL_DIR or the system tmp).
  std::string spill_dir;
  /// Record an overrun instead of failing with kResourceExhausted when
  /// the budget is infeasible for this tree.
  bool allow_overrun = false;

  friend bool operator==(const OocExecConfig&,
                         const OocExecConfig&) = default;
};

/// What the real spill path did during one factorization (all zero when
/// the mode is off). Doubles counts use the same full-square unit as
/// the budget; the byte views are doubles * 8.
struct OocExecStats {
  count_t budget_doubles = 0;
  /// High-water mark of the budget-charged bytes: resident CBs + live
  /// fronts + in-flight spill/factor writes. <= budget when the run was
  /// feasible (overrun_peak_doubles == 0).
  count_t charged_peak_doubles = 0;
  count_t overrun_peak_doubles = 0;
  count_t spill_doubles = 0;         // CBs evicted to disk
  count_t reload_doubles = 0;        // CBs read back at assembly
  count_t factor_write_doubles = 0;  // factor panels streamed
  index_t spill_events = 0;
  index_t reload_events = 0;
  index_t io_retries = 0;
  count_t buffer_high_water_doubles = 0;
  /// Compute-thread seconds lost to the budget: admission waits (less
  /// the helper blocks a waiter ran meanwhile), demand reloads,
  /// full-buffer appends and the final drain.
  double stall_seconds = 0;
  /// Disk-write seconds that proceeded while compute kept running (the
  /// I/O the write-behind buffer hid): the I/O thread's busy time less
  /// the part of it during which at least one compute thread was
  /// blocked on it. 0 in synchronous mode.
  double overlap_seconds = 0;
  /// Reservation admissions — one per begin_node, so one per node —
  /// and the model stall the scheduler policy returned for them
  /// (OocSchedHooks::admit).
  index_t policy_admissions = 0;
  double policy_stall_seconds = 0;
};

}  // namespace memfront
